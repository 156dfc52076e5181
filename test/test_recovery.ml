(* Crash-recovery regression suite: deactivation unpublishes a dead
   handle's protection, adoption hands its limbo to a survivor, seats let
   a deactivated tid re-register (including Hyaline's crashed-mid-op
   ownership case), NR warns instead of pretending to recover, the
   supervised runner crash-recovers every scheme at 2 and 4 domains, and
   a QCheck property drives random crash schedules under supervision. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let reclaimable hdr : Smr.Smr_intf.reclaimable =
  { hdr; free = (fun _tid -> Memory.Hdr.mark_reclaimed hdr) }

let config_small =
  Smr.Smr_intf.make_config ~limbo_threshold:4 ~epoch_freq:4 ~batch_size:2
    ~threads:1 ()

let active_handles stats = List.assoc "active_handles" stats

(* A handle that crashed mid-read pins memory until [deactivate]
   unpublishes it; afterwards the survivor reclaims everything. *)
let test_deactivate_unpublishes (module S : Smr.Smr_intf.S) () =
  if S.name = "NR" then ()
  else begin
    let mk_hdr th =
      let hdr = Memory.Hdr.create () in
      S.on_alloc th hdr;
      hdr
    in
    let t = S.create ~config:config_small ~threads:2 ~slots:2 () in
    let victim = S.register t ~tid:0 in
    let survivor = S.register t ~tid:1 in
    S.start_op survivor;
    let hdr = mk_hdr survivor in
    S.end_op survivor;
    let cell = Atomic.make (Some hdr) in
    (* Victim protects the node mid-traversal, then "crashes": the raise
       propagates out of the bracket WITHOUT running [end_op] (crash
       semantics), so its published protection leaks. *)
    let rdr =
      S.reader victim
        { Smr.Smr_intf.is_null = Option.is_none; hdr = Option.get }
    in
    (match
       S.with_op victim
         {
           Smr.Smr_intf.op0 =
             (fun tok ->
               ignore (S.protect rdr tok ~slot:0 cell);
               raise Exit);
         }
     with
    | () -> Alcotest.fail "crash body returned"
    | exception Exit -> ());
    (* Survivor unlinks, retires and aggressively reclaims: the orphaned
       protection must still be honoured (no premature free). *)
    Atomic.set cell None;
    S.start_op survivor;
    S.retire survivor (reclaimable hdr);
    for _ = 1 to 32 do
      S.retire survivor (reclaimable (mk_hdr survivor))
    done;
    S.end_op survivor;
    S.flush survivor;
    check (S.name ^ ": dead handle still pins") false
      (Memory.Hdr.is_reclaimed hdr);
    (* The owner domain is (notionally) dead: deactivate unpublishes. *)
    S.deactivate victim;
    S.deactivate victim (* idempotent *);
    for _ = 1 to 4 do
      S.flush survivor
    done;
    check (S.name ^ ": reclaimed after deactivate") true
      (Memory.Hdr.is_reclaimed hdr);
    check_int (S.name ^ ": gauge drained") 0 (S.unreclaimed t)
  end

(* Adoption moves the orphan's unswept limbo into the adopter; one sweep
   of the adopter then drains it. *)
let test_adopt_moves_limbo (module S : Smr.Smr_intf.S) () =
  if S.name = "NR" then ()
  else begin
    let mk_hdr th =
      let hdr = Memory.Hdr.create () in
      S.on_alloc th hdr;
      hdr
    in
    let t = S.create ~config:config_small ~threads:2 ~slots:2 () in
    let victim = S.register t ~tid:0 in
    let survivor = S.register t ~tid:1 in
    let hdrs =
      List.init 3 (fun _ ->
          S.start_op victim;
          let h = mk_hdr victim in
          S.end_op victim;
          h)
    in
    (* Below the limbo threshold: the retires sit in the victim's buffer
       when it dies. *)
    List.iter (fun h -> S.retire victim (reclaimable h)) hdrs;
    check (S.name ^ ": orphan limbo populated") true (S.unreclaimed t > 0);
    S.deactivate victim;
    S.adopt ~victim ~into:survivor;
    check (S.name ^ ": adoption moves, not reclaims") true
      (S.unreclaimed t > 0);
    for _ = 1 to 4 do
      S.flush survivor
    done;
    check (S.name ^ ": orphan limbo reclaimed by adopter") true
      (List.for_all Memory.Hdr.is_reclaimed hdrs);
    check_int (S.name ^ ": gauge drained after adoption sweep") 0
      (S.unreclaimed t)
  end

(* [adopt] without a prior [deactivate] is a protocol violation. *)
let test_adopt_requires_deactivate (module S : Smr.Smr_intf.S) () =
  let t = S.create ~config:config_small ~threads:2 ~slots:2 () in
  let victim = S.register t ~tid:0 in
  let survivor = S.register t ~tid:1 in
  match S.adopt ~victim ~into:survivor with
  | () -> Alcotest.fail (S.name ^ ": adopt of a live handle did not raise")
  | exception Invalid_argument _ -> ()

(* Seat accounting: a tid holds at most one live handle, a deactivated
   tid's seat is released and the same tid re-registers cleanly —
   including after a crash *inside* an operation, the case that used to
   trip Hyaline's per-slot ownership CAS. *)
let test_seat_reuse (module S : Smr.Smr_intf.S) () =
  let t = S.create ~config:config_small ~threads:2 ~slots:2 () in
  let h0 = S.register t ~tid:0 in
  let _h1 = S.register t ~tid:1 in
  check_int (S.name ^ ": both seats claimed") 2 (active_handles (S.stats t));
  let refused () =
    match S.register t ~tid:0 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check (S.name ^ ": second register on a live tid refused") true (refused ());
  check_int (S.name ^ ": refusal claimed no seat") 2
    (active_handles (S.stats t));
  (* Crash mid-op: start without end, then declare the owner dead. *)
  S.start_op h0;
  S.deactivate h0;
  check_int (S.name ^ ": seat released") 1 (active_handles (S.stats t));
  let h0' = S.register t ~tid:0 in
  check_int (S.name ^ ": seat reclaimed") 2 (active_handles (S.stats t));
  check (S.name ^ ": the replacement holds the seat") true (refused ());
  (* The replacement runs a full operation on the recycled slot. *)
  S.start_op h0';
  let hdr = Memory.Hdr.create () in
  S.on_alloc h0' hdr;
  S.retire h0' (reclaimable hdr);
  S.end_op h0';
  S.flush h0'

(* NR cannot bound memory by adoption.  The capability record is the
   contract: [recoverable = false] tells supervisors to warn (the harness
   synthesizes the message — see the [rc_warnings] check in the supervised
   runs below); the scheme-level [adopt] itself is a silent no-op, not a
   pretend-success that reclaims anything. *)
let test_nr_adopt_noop () =
  let (module NR : Smr.Smr_intf.S) = Smr.Registry.find_exn "NR" in
  check "NR is not recoverable" false
    NR.capabilities.Smr.Smr_intf.recoverable;
  let t = NR.create ~config:config_small ~threads:2 ~slots:2 () in
  let victim = NR.register t ~tid:0 in
  let survivor = NR.register t ~tid:1 in
  let hdr = Memory.Hdr.create () in
  NR.on_alloc victim hdr;
  NR.retire victim (reclaimable hdr);
  let before = NR.unreclaimed t in
  NR.deactivate victim;
  NR.adopt ~victim ~into:survivor;
  NR.flush survivor;
  check "adopt reclaimed nothing" true (NR.unreclaimed t = before);
  check "NR never frees the orphan" false (Memory.Hdr.is_reclaimed hdr)

(* The capability matrix replaces the old recoverable/robust flags:
   everything but NR is recoverable, everything but NR/EBR is robust, and
   only DBR neutralizes. *)
let test_recoverable_flags () =
  List.iter
    (fun (module S : Smr.Smr_intf.S) ->
      let caps = S.capabilities in
      check (S.name ^ ": recoverable iff not NR") (S.name <> "NR")
        caps.Smr.Smr_intf.recoverable;
      check
        (S.name ^ ": robust iff not NR/EBR")
        (S.name <> "NR" && S.name <> "EBR")
        caps.Smr.Smr_intf.robust;
      check (S.name ^ ": neutralizing iff DBR") (S.name = "DBR")
        caps.Smr.Smr_intf.neutralizing)
    Smr.Registry.all

(* --- supervised end-to-end: crash a worker, adopt, respawn --- *)

(* One short supervised run per (scheme, domains): a worker crashes
   mid-traversal, the supervisor must recover and respawn it, robust
   schemes must come back under the adoption bound, EBR must stop
   growing, NR must warn. *)
let test_supervised_recovery (module S : Smr.Smr_intf.S) threads () =
  let r =
    Harness.Experiments.recover ~structure:"HList" ~threads ~crashed:1
      ~range:128 ~duration:0.3
      ~scheme:(module S : Smr.Smr_intf.S)
      ()
  in
  (* Name every failed check with its numbers, not just the first. *)
  check
    (Printf.sprintf "%s@%d: failed checks [%s]" S.name threads
       (String.concat "; "
          (Harness.Soak.failures r.Harness.Experiments.rc_checks)))
    true r.Harness.Experiments.rc_ok;
  check (S.name ^ ": worker respawned") true
    (List.exists
       (fun (e : Harness.Metrics.recovery_event) -> e.rv_action = "respawn")
       r.Harness.Experiments.rc_events);
  (* The harness, not the scheme, owns the adoption warning now: it
     synthesizes one per recovery on a non-recoverable scheme. *)
  if not S.capabilities.Smr.Smr_intf.recoverable then begin
    check (S.name ^ ": non-recoverable adoption warned") true
      (r.Harness.Experiments.rc_warnings > 0);
    check (S.name ^ ": warning message synthesized") true
      (r.Harness.Experiments.rc_warning_msgs <> [])
  end

(* --- QCheck: random crash schedules under supervision --- *)

(* Random crash schedules (scheme, victim count, injection point, fire
   countdown all seeded) against the safe HList under supervision: the
   structure must never fault, its invariants must hold, and for robust
   schemes the post-run gauge must sit under the adoption-aware bound. *)
let prop_supervised_random_crashes =
  QCheck.Test.make ~count:6
    ~name:"supervised random crash schedules: no faults, bounded"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Harness.Workload.Rng.create ~seed in
      let robust =
        List.filter
          (fun (module S : Smr.Smr_intf.S) ->
            S.capabilities.Smr.Smr_intf.robust)
          Smr.Registry.all
      in
      let (module S : Smr.Smr_intf.S) =
        List.nth robust (Harness.Workload.Rng.int rng (List.length robust))
      in
      let threads = 3 in
      let crashed = 1 + Harness.Workload.Rng.int rng 2 in
      let points = [| Smr.Probe.Start_op; Smr.Probe.Read; Smr.Probe.Retire |] in
      let config =
        Smr.Smr_intf.make_config ~limbo_threshold:8 ~epoch_freq:8
          ~batch_size:4 ~threads ()
      in
      let captured = ref None in
      let bound = ref None in
      let r =
        Harness.Runner.run ~config ~check:true ~measure_latency:false
          ~sample_every:0.002 ~supervise:Harness.Supervisor.default
          ~prepare:(fun inst ->
            captured := Some inst;
            bound :=
              Harness.Chaos.mem_bound
                (module S)
                ~config ~threads ~slots:inst.Harness.Instance.slots ~range:64
                ~adopted:crashed ~stalled:0 ();
            let e = inst.Harness.Instance.fault.engine () in
            for tid = threads - crashed to threads - 1 do
              Harness.Chaos.arm e ~tid
                ~point:points.(Harness.Workload.Rng.int rng (Array.length points))
                ~after:(Harness.Workload.Rng.int rng 500)
                Harness.Chaos.Crash
            done)
          ~finish:(fun inst -> inst.Harness.Instance.fault.shutdown ())
          ~builder:(Harness.Instance.find_builder_exn "HList")
          ~scheme:(module S)
          ~threads ~range:64 ~duration:0.2 ()
      in
      let post_quiesced =
        match !captured with
        | Some inst -> inst.Harness.Instance.unreclaimed ()
        | None -> max_int
      in
      let bounded =
        match !bound with Some b -> post_quiesced <= b | None -> false
      in
      if r.Harness.Runner.faults <> 0 then
        QCheck.Test.fail_reportf "%s seed %d: use-after-free" S.name seed;
      if not bounded then
        QCheck.Test.fail_reportf
          "%s seed %d: post-run gauge %d over adoption bound" S.name seed
          post_quiesced;
      true)

let () =
  let per_scheme name f =
    List.map
      (fun (module S : Smr.Smr_intf.S) ->
        Alcotest.test_case (S.name ^ " " ^ name) `Quick (f (module S : Smr.Smr_intf.S)))
      Smr.Registry.all
  in
  Alcotest.run "recovery"
    [
      ("deactivate", per_scheme "deactivate unpublishes" test_deactivate_unpublishes);
      ("adopt", per_scheme "adopt moves limbo" test_adopt_moves_limbo);
      ( "protocol",
        per_scheme "adopt requires deactivate" test_adopt_requires_deactivate
        @ [
            Alcotest.test_case "NR adopt is a silent no-op" `Quick
              test_nr_adopt_noop;
            Alcotest.test_case "recoverable flags" `Quick
              test_recoverable_flags;
          ] );
      ("seats", per_scheme "seat reuse" test_seat_reuse);
      ( "supervised",
        List.concat_map
          (fun (module S : Smr.Smr_intf.S) ->
            List.map
              (fun threads ->
                Alcotest.test_case
                  (Printf.sprintf "%s crash-recover at %d domains" S.name
                     threads)
                  `Slow
                  (test_supervised_recovery (module S) threads))
              [ 2; 4 ])
          Smr.Registry.all );
      ( "random schedules",
        [ QCheck_alcotest.to_alcotest prop_supervised_random_crashes ] );
    ]
