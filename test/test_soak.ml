(* The soak engine on short Instance-backed runs: supervised crash
   recovery, the published phase index and the typed verdict list; plus a
   smoke-sized run of the pressure soak, gated only on facts that do not
   depend on the host's timing. *)

open Harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let instance ?(threads = 3) scheme =
  let inst =
    (Instance.find_builder_exn "HList").build
      (Smr.Registry.find_exn scheme)
      ~threads ()
  in
  Array.iter
    (fun k -> ignore (inst.insert ~tid:0 k))
    (Workload.prefill_keys ~range:64 ~seed:7);
  inst

(* A churning body over the instance: every op crosses protected-load
   probes, so crash and park rules fire mid-operation. *)
let body (inst : Instance.t) (w : Soak.worker) =
  let rng = Workload.Rng.create ~seed:(w.tid + 1) in
  fun () ->
    while not (Atomic.get w.stop) do
      let k = Workload.Rng.int rng 64 in
      (match Workload.Rng.int rng 3 with
      | 0 -> ignore (inst.search ~tid:w.tid k)
      | 1 -> ignore (inst.insert ~tid:w.tid k)
      | _ -> ignore (inst.delete ~tid:w.tid k));
      Atomic.incr w.beat;
      incr w.ops
    done

let test_crash_recovered () =
  let inst = instance "IBR" in
  let target = Soak.instance_target inst in
  Chaos.arm (target.engine ()) ~tid:2 ~point:Smr.Probe.Read ~after:50
    Chaos.Crash;
  let o =
    Soak.run ~supervise:Supervisor.default target ~workers:3 ~duration:0.3
      (body inst)
  in
  let mine =
    List.filter (fun (e : Metrics.recovery_event) -> e.rv_tid = 2) o.recoveries
  in
  check_int "the crash is recovered exactly once" 1 (List.length mine);
  check_string "and respawned" "respawn" (List.hd mine).rv_action;
  check_int "no other tid recovered" 1 (List.length o.recoveries);
  check_int "no faults" 0 o.faults;
  check "workers made progress" true (o.ops > 0);
  inst.check_invariants ()

let test_phase_follows_schedule () =
  let inst = instance ~threads:2 "EBR" in
  let mix = Workload.read_write_50 in
  let sched =
    Workload.schedule ~fallback:mix
      [ { p_mix = mix; p_for = 0.05 }; { p_mix = mix; p_for = 0.05 } ]
  in
  let seen = ref [] in
  let o =
    Soak.run ~schedule:sched
      ~on_sample:(fun ctl ~now -> seen := (now, Soak.phase ctl) :: !seen)
      (Soak.instance_target inst) ~workers:2 ~duration:0.25 (body inst)
  in
  check "hook called every sample" true
    (List.length !seen = List.length o.mem_series);
  List.iter
    (fun (now, i) ->
      check_int
        (Printf.sprintf "phase at %.3f s" now)
        (Workload.phase_index sched now) i)
    !seen;
  check "both phases published" true
    (List.exists (fun (_, i) -> i = 0) !seen
    && List.exists (fun (_, i) -> i = 1) !seen)

let test_verdict () =
  let pass = Soak.check "a" true ~detail:"unused" in
  let bare = Soak.check "b" false in
  let numbered = Soak.check "c" false ~detail:"x=2>1" in
  check_string "all pass" "ok" (Soak.verdict [ pass; pass ]);
  check_string "empty list passes" "ok" (Soak.verdict []);
  check_string "first failure, bare" "b" (Soak.verdict [ pass; bare; numbered ]);
  check_string "first failure, with detail" "c:x=2>1"
    (Soak.verdict [ numbered; bare ]);
  Alcotest.(check (list string))
    "every failure, in order" [ "b"; "c:x=2>1" ]
    (Soak.failures [ bare; pass; numbered ])

(* A worker killed by a simulated use-after-free is counted, not
   recovered: the engine reports it in [faults]. *)
let test_uaf_counted () =
  let inst = instance ~threads:2 "EBR" in
  let o =
    Soak.run (Soak.instance_target inst) ~workers:2 ~duration:0.1 (fun w ->
        if w.tid = 1 then fun () -> Memory.Fault.fail "test" else body inst w)
  in
  check_int "one fault" 1 o.faults;
  check "no recovery recorded" true (o.recoveries = [])

(* A use-after-free inside the serve soak fails its verdict, ahead of
   every other check.  The fault is raised from the probe point on the
   first protected load of tid 1 (no chaos engine is created, since no
   crash is armed, so the handler stays installed for the run). *)
let test_serve_uaf_fails () =
  let fired = Atomic.make false in
  Smr.Probe.install (fun tid point ->
      if tid = 1 && point = Smr.Probe.Read
         && Atomic.compare_and_set fired false true
      then Memory.Fault.fail "test");
  let cfg =
    {
      (Scotstore.Serve.default_cfg ()) with
      sv_threads = 2;
      sv_shards = 2;
      sv_range = 512;
      sv_duration = 0.2;
    }
  in
  let r =
    Fun.protect ~finally:Smr.Probe.uninstall (fun () ->
        Scotstore.Serve.run cfg Scotstore.Serve.Per_op)
  in
  check "the probe fired" true (Atomic.get fired);
  check "verdict fails" false r.r_ok;
  check_string "the fault is the first failure" "uaf:1" r.r_verdict

(* The pressure soak at its smoke size.  Its liveness verdicts depend on
   the host's scheduler, so only the deterministic facts are gated. *)
let test_overload_smoke () =
  let cfg =
    {
      (Scotstore.Overload.default_cfg ()) with
      pv_workers = 4;
      pv_domains = 3;
      pv_readers = 1;
      pv_range = 512;
      pv_clean_s = 0.2;
      pv_ramp_s = 0.5;
      pv_drain_s = 0.5;
    }
  in
  let r = Scotstore.Overload.run cfg in
  check_int "no use-after-free" 0 r.r_faults;
  check_int "every extra parked" (cfg.pv_workers - cfg.pv_domains) r.r_parked;
  check "invariants hold" true (r.r_verdict <> "invariants-failed")

let () =
  Alcotest.run "soak"
    [
      ( "engine",
        [
          Alcotest.test_case "supervised crash recovered once" `Quick
            test_crash_recovered;
          Alcotest.test_case "hook sees the scheduled phase" `Quick
            test_phase_follows_schedule;
          Alcotest.test_case "verdict from typed checks" `Quick test_verdict;
          Alcotest.test_case "use-after-free counted" `Quick test_uaf_counted;
        ] );
      ( "serve",
        [
          Alcotest.test_case "use-after-free fails the verdict" `Quick
            test_serve_uaf_fails;
        ] );
      ( "overload",
        [ Alcotest.test_case "IBR enforcing smoke" `Slow test_overload_smoke ]
      );
    ]
