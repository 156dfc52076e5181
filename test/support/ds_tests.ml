(* Generic test batteries applied to every (data structure x SMR scheme)
   combination through the type-erased instance interface:

   - scripted sequential set semantics,
   - model-based random testing against [Stdlib.Set] (qcheck),
   - a concurrent key-partition test where each thread owns a residue class
     of keys and the final contents are exactly predictable,
   - a concurrent mixed stress with invariant checking and fault detection,
   - crash recovery of one thread's handle (adopted limbo drains, the
     replacement handle works).
*)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module ISet = Set.Make (Int)

let build (builder : Harness.Instance.builder) scheme ~threads =
  builder.build scheme ~threads ()

(* --- scripted sequential semantics --- *)

let sequential_semantics builder scheme () =
  let i = build builder scheme ~threads:1 in
  let ins k = i.Harness.Instance.insert ~tid:0 k in
  let del k = i.Harness.Instance.delete ~tid:0 k in
  let mem k = i.Harness.Instance.search ~tid:0 k in
  check "empty search" false (mem 5);
  check "empty delete" false (del 5);
  check "insert 5" true (ins 5);
  check "insert 5 again fails" false (ins 5);
  check "search 5" true (mem 5);
  check "insert 1" true (ins 1);
  check "insert 9" true (ins 9);
  check "search 1" true (mem 1);
  check "search absent 2" false (mem 2);
  check_int "size 3" 3 (i.size ());
  check "delete 5" true (del 5);
  check "delete 5 again fails" false (del 5);
  check "5 gone" false (mem 5);
  check "1 kept" true (mem 1);
  check "9 kept" true (mem 9);
  check_int "size 2" 2 (i.size ());
  (* boundary keys *)
  check "insert 0" true (ins 0);
  check "search 0" true (mem 0);
  check "delete 0" true (del 0);
  (* delete interleaved with re-insert *)
  check "reinsert 5" true (ins 5);
  check "search 5 after reinsert" true (mem 5);
  i.check_invariants ();
  i.quiesce ~tid:0;
  check_int "final size" 3 (i.size ())

(* --- model-based random testing against Stdlib.Set --- *)

type op = Ins of int | Del of int | Mem of int

let op_gen ~range =
  QCheck.Gen.(
    map2
      (fun c k -> match c with 0 -> Ins k | 1 -> Del k | _ -> Mem k)
      (int_bound 2) (int_bound (range - 1)))

let show_op = function
  | Ins k -> Printf.sprintf "Ins %d" k
  | Del k -> Printf.sprintf "Del %d" k
  | Mem k -> Printf.sprintf "Mem %d" k

let model_based ?(range = 16) ?(count = 150) builder scheme =
  let name =
    Printf.sprintf "%s/%s agrees with Set on random op sequences"
      builder.Harness.Instance.name
      (let (module S : Smr.Smr_intf.S) = scheme in
       S.name)
  in
  QCheck.Test.make ~count ~name
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 120) (op_gen ~range)))
    (fun ops ->
      let i = build builder scheme ~threads:1 in
      let model = ref ISet.empty in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | Ins k ->
                let expected = not (ISet.mem k !model) in
                model := ISet.add k !model;
                i.Harness.Instance.insert ~tid:0 k = expected
            | Del k ->
                let expected = ISet.mem k !model in
                model := ISet.remove k !model;
                i.Harness.Instance.delete ~tid:0 k = expected
            | Mem k -> i.Harness.Instance.search ~tid:0 k = ISet.mem k !model)
          ops
      in
      i.check_invariants ();
      ok
      && i.size () = ISet.cardinal !model
      && List.for_all
           (fun k -> i.Harness.Instance.search ~tid:0 k = ISet.mem k !model)
           (List.init range Fun.id))

(* --- concurrent key-partition test ---

   Thread [tid] only mutates keys congruent to [tid] modulo [threads], so the
   final presence of every key is determined by its owner's last operation;
   concurrent physical unlinking by other threads must never change logical
   contents. *)
let concurrent_partition ?(threads = 4) ?(range = 64) ?(ops = 20_000) builder
    scheme () =
  let i = build builder scheme ~threads in
  let expected = Array.make range false in
  let worker tid () =
    let rng = Harness.Workload.Rng.create ~seed:(1000 + tid) in
    let mine =
      Array.of_list
        (List.filter (fun k -> k mod threads = tid) (List.init range Fun.id))
    in
    for _ = 1 to ops do
      let k = mine.(Harness.Workload.Rng.int rng (Array.length mine)) in
      if Harness.Workload.Rng.int rng 2 = 0 then begin
        ignore (i.Harness.Instance.insert ~tid k);
        expected.(k) <- true
      end
      else begin
        ignore (i.Harness.Instance.delete ~tid k);
        expected.(k) <- false
      end
    done
  in
  let doms = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join doms;
  i.check_invariants ();
  for k = 0 to range - 1 do
    check
      (Printf.sprintf "key %d presence" k)
      expected.(k)
      (i.Harness.Instance.search ~tid:0 k)
  done

(* --- concurrent mixed stress: no faults, invariants hold --- *)

let concurrent_stress ?(threads = 4) ?(range = 128) ?(ops = 30_000) builder
    scheme () =
  let i = build builder scheme ~threads in
  let worker tid () =
    let rng = Harness.Workload.Rng.create ~seed:(7 * (tid + 3)) in
    for _ = 1 to ops do
      let k = Harness.Workload.Rng.int rng range in
      match Harness.Workload.Rng.int rng 4 with
      | 0 | 1 -> ignore (i.Harness.Instance.insert ~tid k)
      | 2 -> ignore (i.Harness.Instance.delete ~tid k)
      | _ -> ignore (i.Harness.Instance.search ~tid k)
    done;
    i.quiesce ~tid
  in
  let doms = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join doms;
  i.check_invariants ();
  check "no faults and a sane size" true (i.size () >= 0 && i.size () <= range)

(* --- aggressive-reclamation stress: tiny key range, limbo threshold 1 ---

   Maximises traffic through the dangerous zone with immediate reclamation;
   the strongest regression test for the SCOT validation itself. *)
let aggressive_reclaim_stress ?(threads = 4) ?(range = 8) ?(ops = 20_000)
    builder scheme () =
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:2 ~batch_size:1
      ~threads ()
  in
  let i = builder.Harness.Instance.build scheme ~threads ~config () in
  let worker tid () =
    let rng = Harness.Workload.Rng.create ~seed:(13 * (tid + 1)) in
    for _ = 1 to ops do
      let k = Harness.Workload.Rng.int rng range in
      match Harness.Workload.Rng.int rng 3 with
      | 0 -> ignore (i.Harness.Instance.insert ~tid k)
      | 1 -> ignore (i.Harness.Instance.delete ~tid k)
      | _ -> ignore (i.Harness.Instance.search ~tid k)
    done;
    i.quiesce ~tid
  in
  let doms = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join doms;
  i.check_invariants ()

(* --- crash recovery: the dead thread's limbo is adopted and drained ---

   Thread 1 churns and "dies" holding its limbo (threshold and batch are
   wide enough that no pass ran); [recover] must hand the tid a working
   replacement handle without changing logical contents, and a
   recoverable scheme must reclaim every adopted node.  NR never
   reclaims, so its gauge keeps them. *)
let recover_semantics builder scheme () =
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:64 ~epoch_freq:4
      ~batch_size:64 ~threads:2 ()
  in
  let i = builder.Harness.Instance.build scheme ~threads:2 ~config () in
  for k = 0 to 31 do
    ignore (i.Harness.Instance.insert ~tid:1 k)
  done;
  for k = 0 to 15 do
    ignore (i.Harness.Instance.delete ~tid:1 (2 * k))
  done;
  let orphaned = i.unreclaimed () in
  check "victim died holding limbo" true (orphaned > 0);
  i.recover ~tid:1;
  if i.capabilities.Smr.Smr_intf.recoverable then
    check_int "adopted limbo drained" 0 (i.unreclaimed ())
  else check "orphaned limbo kept" true (i.unreclaimed () >= orphaned);
  for k = 0 to 31 do
    let odd = k mod 2 = 1 in
    check (Printf.sprintf "key %d (survivor)" k) odd
      (i.Harness.Instance.search ~tid:0 k);
    check (Printf.sprintf "key %d (replacement)" k) odd
      (i.Harness.Instance.search ~tid:1 k)
  done;
  check "replacement inserts" true (i.Harness.Instance.insert ~tid:1 0);
  check "replacement deletes" true (i.Harness.Instance.delete ~tid:1 1);
  i.check_invariants ();
  check_int "size after recovery" 16 (i.size ());
  i.teardown ();
  if i.capabilities.Smr.Smr_intf.recoverable then
    check_int "teardown drains" 0 (i.unreclaimed ())

(* Standard suite for one builder across schemes. *)
let full_suite ?(schemes = Smr.Registry.all) builder =
  let scheme_name (module S : Smr.Smr_intf.S) = S.name in
  let seq =
    List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "sequential (%s)" (scheme_name s))
          `Quick
          (sequential_semantics builder s))
      schemes
  in
  let partition =
    List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "partition (%s)" (scheme_name s))
          `Quick
          (concurrent_partition builder s))
      schemes
  in
  let stress =
    List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "stress (%s)" (scheme_name s))
          `Quick
          (concurrent_stress builder s))
      schemes
  in
  let aggressive =
    List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "aggressive reclaim (%s)" (scheme_name s))
          `Quick
          (aggressive_reclaim_stress builder s))
      schemes
  in
  let recover =
    List.map
      (fun s ->
        Alcotest.test_case
          (Printf.sprintf "recover (%s)" (scheme_name s))
          `Quick
          (recover_semantics builder s))
      schemes
  in
  let props =
    List.map
      (fun s -> QCheck_alcotest.to_alcotest (model_based builder s))
      schemes
  in
  [
    ("sequential", seq);
    ("concurrent-partition", partition);
    ("concurrent-stress", stress);
    ("aggressive-reclaim", aggressive);
    ("recover", recover);
    ("model-based", props);
  ]
