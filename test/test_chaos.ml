(* Regression suite for the chaos fault-injection harness (DESIGN: the
   paper's §2.2.1 adversary made executable): deterministic engine
   semantics driven synchronously through the probe layer, same-seed
   schedule/trace replay, per-scheme bounded memory with a stalled domain,
   the crashed-without-end_op no-false-reclamation guarantee, and a
   property-based schedule fuzzer over the safe structures. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let robust_schemes =
  List.filter
    (fun (module S : Smr.Smr_intf.S) -> S.capabilities.Smr.Smr_intf.robust)
    Smr.Registry.all

(* --- engine semantics, single-threaded via Smr.Probe.hit --- *)

let with_engine ~threads f =
  let t = Harness.Chaos.create ~threads () in
  Harness.Chaos.install t;
  Fun.protect ~finally:(fun () -> Harness.Chaos.uninstall ()) (fun () -> f t)

let test_fire_once_countdown () =
  with_engine ~threads:1 (fun t ->
      Harness.Chaos.arm t ~tid:0 ~point:Smr.Probe.Read ~after:2
        (Harness.Chaos.Stall { for_s = Some 0.001 });
      Smr.Probe.hit 0 Smr.Probe.Read;
      Smr.Probe.hit 0 Smr.Probe.Read;
      check_int "silent while counting down" 0
        (List.length (Harness.Chaos.events t));
      (* Third crossing: parks for the 1ms deadline, then returns. *)
      Smr.Probe.hit 0 Smr.Probe.Read;
      check_int "fired on the after+1-th crossing" 1
        (List.length (Harness.Chaos.events t));
      Smr.Probe.hit 0 Smr.Probe.Read;
      check_int "fire-once: disarmed after triggering" 1
        (List.length (Harness.Chaos.events t));
      (* Points are independent: a Retire crossing never sees Read rules. *)
      Smr.Probe.hit 0 Smr.Probe.Retire;
      check_int "other points unaffected" 1
        (List.length (Harness.Chaos.events t)))

let test_crash_poisons_tid () =
  with_engine ~threads:1 (fun t ->
      Harness.Chaos.arm t ~tid:0 ~point:Smr.Probe.Retire ~after:0
        Harness.Chaos.Crash;
      (match Smr.Probe.hit 0 Smr.Probe.Retire with
      | () -> Alcotest.fail "armed crash did not raise"
      | exception Harness.Chaos.Crashed -> ());
      check "crashed flag set" true (Harness.Chaos.crashed t ~tid:0);
      (* Poisoned: every later crossing of ANY point raises again, so a
         crashed tid can never re-enter an operation half-alive. *)
      match Smr.Probe.hit 0 Smr.Probe.Start_op with
      | () -> Alcotest.fail "poisoned tid crossed a point"
      | exception Harness.Chaos.Crashed -> ())

let test_uninstalled_probe_is_noop () =
  check "no handler active" false (Smr.Probe.active ());
  (* Must be a no-op for any tid, including ones no engine ever sized. *)
  Smr.Probe.hit 0 Smr.Probe.Read;
  Smr.Probe.hit 999 Smr.Probe.Reclaim

(* --- deterministic replay --- *)

(* Drive every (tid, point) pair round-robin from this single thread: the
   global trigger order is then a pure function of the schedule, so one
   seed must always produce one trace.  2100 rounds covers the generator's
   maximum countdown (after < 2000). *)
let trace_of_seed seed =
  with_engine ~threads:4 (fun t ->
      Harness.Chaos.apply t (Harness.Chaos.random_schedule ~threads:4 ~seed);
      for _ = 1 to 2100 do
        List.iter
          (fun p ->
            for tid = 0 to 3 do
              try Smr.Probe.hit tid p with Harness.Chaos.Crashed -> ()
            done)
          Smr.Probe.all_points
      done;
      Harness.Chaos.trace t)

let test_same_seed_same_trace () =
  let strings s = List.map Harness.Chaos.rule_to_string s in
  let s1 = Harness.Chaos.random_schedule ~threads:4 ~seed:11 in
  Alcotest.(check (list string))
    "same seed, same schedule" (strings s1)
    (strings (Harness.Chaos.random_schedule ~threads:4 ~seed:11));
  check "different seed, different schedule" true
    (strings s1 <> strings (Harness.Chaos.random_schedule ~threads:4 ~seed:12));
  let t1 = trace_of_seed 11 in
  Alcotest.(check (list string)) "same seed, same trace" t1 (trace_of_seed 11);
  check "schedule actually fired" true (t1 <> [])

(* --- bounded memory under a stalled domain (Theorem 1, empirically) --- *)

let test_bounded_under_stall (module S : Smr.Smr_intf.S) () =
  List.iter
    (fun threads ->
      let r =
        Harness.Experiments.chaos ~threads ~stalled:1 ~duration:0.25
          ~range:128
          ~scheme:(module S : Smr.Smr_intf.S)
          ()
      in
      match r.Harness.Experiments.c_bound with
      | None -> Alcotest.fail (S.name ^ ": robust scheme must have a bound")
      | Some b ->
          check
            (Printf.sprintf "%s at %d domains: max %d under bound %d" S.name
               threads r.c_max_unreclaimed b)
            true
            (r.c_max_unreclaimed <= b);
          check
            (Printf.sprintf "%s at %d domains: drained %d under bound %d"
               S.name threads r.c_post_quiesced b)
            true
            (r.c_post_quiesced <= b))
    [ 2; 4 ]

let test_ebr_grows_unbounded () =
  let r =
    Harness.Experiments.chaos ~threads:4 ~stalled:1 ~duration:0.5
      ~scheme:(Smr.Registry.find_exn "EBR") ()
  in
  check "non-robust scheme has no bound" true
    (r.Harness.Experiments.c_bound = None);
  check "growth verdict holds" true r.c_ok;
  check "memory keeps climbing while stalled" true
    (r.c_last_third > r.c_first_third);
  check "backlog drains once the stall is released" true
    (r.c_post_quiesced < r.c_max_unreclaimed)

(* A chaos row reaches its BENCH document with the post-release drain, and
   a soak document carries no [config] block: each row names its own
   parameters. *)
let test_chaos_bench_row () =
  let r =
    Harness.Experiments.chaos ~threads:2 ~stalled:1 ~duration:0.2 ~range:128
      ~scheme:(Smr.Registry.find_exn "HP") ()
  in
  let path = Filename.temp_file "BENCH_chaos" ".json" in
  Harness.Report.write_bench_doc ~path ~name:"chaos"
    [ Harness.Experiments.chaos_run_json r ];
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  let doc = Harness.Json.of_string contents in
  let open Harness.Json in
  check "no config block" true (member "config" doc = None);
  let run =
    match to_list (member_exn "runs" doc) with
    | Some [ run ] -> run
    | _ -> Alcotest.fail "expected exactly one run"
  in
  let int_key k = match member_exn k run with Int i -> i | _ -> -1 in
  check_int "post_quiesced" r.Harness.Experiments.c_post_quiesced
    (int_key "post_quiesced");
  check_int "max_unreclaimed" r.c_max_unreclaimed (int_key "max_unreclaimed");
  check_int "threads" r.c_threads (int_key "threads")

(* --- crashed without end_op: protection must outlive the thread --- *)

(* fault.crash on a running tid arms a crash on the third protected load
   of a real traversal, so the victim dies holding published reservations
   (HP hazards / HE+IBR era intervals) it never retracts.  A correct
   robust scheme must keep honouring them: deleting every key and
   quiescing the surviving thread cannot drain the nodes the dead reader
   still pins — and must never reclaim them out from under the detector
   (any false reclamation would trip Memory.Fault.Use_after_free in the
   live thread's traversals below). *)
let test_crash_pins_protection name () =
  let scheme = Smr.Registry.find_exn name in
  let builder = Harness.Instance.find_builder_exn "HList" in
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:2 ~batch_size:1
      ~threads:2 ()
  in
  let inst = builder.Harness.Instance.build scheme ~threads:2 ~config () in
  let range = 64 in
  Array.iter
    (fun k -> ignore (inst.Harness.Instance.insert ~tid:0 k))
    (Harness.Workload.prefill_keys ~range ~seed:3);
  let fault = inst.Harness.Instance.fault in
  fault.crash ~tid:1;
  check "victim crashed" true
    (Harness.Chaos.crashed (fault.engine ()) ~tid:1);
  for k = 0 to range - 1 do
    ignore (inst.Harness.Instance.delete ~tid:0 k)
  done;
  for _ = 1 to 8 do
    inst.Harness.Instance.quiesce ~tid:0
  done;
  let residual = inst.Harness.Instance.unreclaimed () in
  let caps = Smr.Registry.capabilities scheme in
  if caps.Smr.Smr_intf.neutralizing then
    (* DBR: the victim published its crash as it raised, so the reclaimer
       marks the posted neutralization delivered and the dead reader's
       announcement stops pinning — no supervisor needed. *)
    check_int
      (Printf.sprintf
         "%s: neutralization unpins the dead reader (residual %d)" name
         residual)
      0 residual
  else
    check
      (Printf.sprintf "%s: dead reader still pins >=1 node (residual %d)" name
         residual)
      true (residual >= 1);
  (* The survivor keeps operating safely over the poisoned structure. *)
  for k = 0 to range - 1 do
    ignore (inst.Harness.Instance.insert ~tid:0 k);
    check (name ^ ": reinserted key visible") true
      (inst.Harness.Instance.search ~tid:0 k)
  done;
  fault.shutdown ()

(* --- schedule fuzzer --- *)

let fuzz_safe_never_faults =
  QCheck.Test.make ~count:4 ~name:"random schedules never fault safe HList"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let uaf, _trace =
        Harness.Experiments.fuzz_once
          ~builder:(Harness.Instance.find_builder_exn "HList")
          ~scheme:(Smr.Registry.find_exn "HP") ~threads:3 ~duration:0.2 ~seed
          ()
      in
      not uaf)

let test_fuzz_finds_uaf_on_unsafe () =
  let r =
    Harness.Experiments.fuzz ~structure:"HListUnsafe" ~threads:4
      ~budget_s:60.0 ~duration:0.25
      ~scheme:(Smr.Registry.find_exn "HP") ()
  in
  check "use-after-free found within budget" true
    (r.Harness.Experiments.fz_uaf_seed <> None)

let () =
  Alcotest.run "chaos"
    [
      ( "engine",
        [
          Alcotest.test_case "fire-once countdown" `Quick
            test_fire_once_countdown;
          Alcotest.test_case "crash poisons tid" `Quick test_crash_poisons_tid;
          Alcotest.test_case "uninstalled probe no-op" `Quick
            test_uninstalled_probe_is_noop;
        ] );
      ( "replay",
        [
          Alcotest.test_case "same seed same trace" `Quick
            test_same_seed_same_trace;
        ] );
      ( "bounded memory",
        List.map
          (fun (module S : Smr.Smr_intf.S) ->
            Alcotest.test_case
              (S.name ^ " bounded at 2 and 4 domains")
              `Slow
              (test_bounded_under_stall (module S)))
          robust_schemes
        @ [
            Alcotest.test_case "EBR grows" `Slow test_ebr_grows_unbounded;
            Alcotest.test_case "BENCH row carries the drain" `Slow
              test_chaos_bench_row;
          ] );
      ( "crash regression",
        List.map
          (fun name ->
            Alcotest.test_case
              (name ^ " honours dead reader's protection")
              `Slow
              (test_crash_pins_protection name))
          [ "HP"; "HE"; "IBR"; "DBR" ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest fuzz_safe_never_faults;
          Alcotest.test_case "HListUnsafe faults within budget" `Slow
            test_fuzz_finds_uaf_on_unsafe;
        ] );
    ]
