(* Uncontended single-domain floors for one scheme: an empty [with_op], one
   [protect], one [retire] below the reclamation threshold.  Traced
   per-call times (smr.bracket_overhead_ns, smr.protect_ns,
   smr.retire_ns) read against these.

   [retire_scaling] answers a separate question: how the full retire path
   (bracket + retire, passes included, default config) slows from one
   retiring domain to two. *)

type floors = { bracket_ns : float; protect_ns : float; retire_ns : float }

let cell_desc : Memory.Hdr.t option Smr.Smr_intf.desc =
  {
    Smr.Smr_intf.is_null = Option.is_none;
    hdr = (function Some h -> h | None -> assert false);
  }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Median over [rounds] of the per-call time of [f n], which runs [n]
   calls. *)
let per_call ~rounds ~n f =
  median
    (List.init rounds (fun _ ->
         let t0 = Clock.now () in
         f n;
         let t1 = Clock.now () in
         float_of_int (t1 - t0) /. float_of_int n))

let floors (module S : Smr.Smr_intf.S) =
  let n = 4096 and rounds = 15 in
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:(4 * n) ~batch_size:(4 * n)
      ~threads:1 ()
  in
  let t = S.create ~config ~threads:1 ~slots:1 () in
  let th = S.register t ~tid:0 in
  let empty = { Smr.Smr_intf.op0 = (fun _ -> ()) } in
  let bracket_ns =
    per_call ~rounds ~n (fun n ->
        for _ = 1 to n do
          S.with_op th empty
        done)
  in
  let h = Memory.Hdr.create () in
  S.on_alloc th h;
  let cell = Atomic.make (Some h) in
  let rdr = S.reader th cell_desc in
  let protects =
    {
      Smr.Smr_intf.op1 =
        (fun tok n ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (S.protect rdr tok ~slot:0 cell))
          done);
    }
  in
  let protect_ns =
    per_call ~rounds ~n (fun n -> S.with_op1 th protects n)
    -. (bracket_ns /. float_of_int n)
  in
  (* Fresh nodes per round, built untimed; the threshold is 4n so no pass
     runs inside the timed loop, and the untimed flush empties limbo. *)
  let retire_ns =
    median
      (List.init rounds (fun _ ->
           let nodes =
             Array.init n (fun _ ->
                 let hdr = Memory.Hdr.create () in
                 S.on_alloc th hdr;
                 { Smr.Smr_intf.hdr; free = ignore })
           in
           let t0 = Clock.now () in
           Array.iter (S.retire th) nodes;
           let t1 = Clock.now () in
           S.flush th;
           float_of_int (t1 - t0) /. float_of_int n))
  in
  { bracket_ns; protect_ns; retire_ns }

(* ns per (bracket + retire) iteration on each of [domains] domains, all
   retiring at once under the default config (passes included). *)
let retire_loop (module S : Smr.Smr_intf.S) ~domains =
  let n = 4096 and rounds = 40 in
  let t = S.create ~threads:domains ~slots:1 () in
  let go = Atomic.make 0 in
  let run tid () =
    let th = S.register t ~tid in
    let retire_one =
      {
        Smr.Smr_intf.op1 =
          (fun _ (r : Smr.Smr_intf.reclaimable) ->
            S.on_alloc th r.hdr;
            S.retire th r);
      }
    in
    Atomic.incr go;
    while Atomic.get go < domains do
      Domain.cpu_relax ()
    done;
    let spent = ref 0 in
    for _ = 1 to rounds do
      let nodes =
        Array.init n (fun _ -> { Smr.Smr_intf.hdr = Memory.Hdr.create (); free = ignore })
      in
      let t0 = Clock.now () in
      Array.iter (S.with_op1 th retire_one) nodes;
      spent := !spent + (Clock.now () - t0)
    done;
    S.flush th;
    float_of_int !spent /. float_of_int (n * rounds)
  in
  let ds = List.init domains (fun tid -> Domain.spawn (run tid)) in
  median (List.map Domain.join ds)
