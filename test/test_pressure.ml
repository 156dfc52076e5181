(* Overload machinery tests: the Pressure state machine (immediate
   ascent, hysteretic margin-gated descent), Backoff's pure delay
   schedule and retry driver, the supervisor's respawn backoff, and the
   store's admission path on deferred writes (deadline rejection and
   level-driven write shedding) under an injected clock. *)

module Pressure = Scotstore.Pressure
module Backoff = Scotstore.Backoff
module Store = Scotstore.Store
module Shard = Scotstore.Shard
module Stats = Scotstore.Stats
module Supervisor = Harness.Supervisor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

let level = Alcotest.testable (Fmt.of_to_string Pressure.level_name) ( = )

(* --- the state machine --- *)

(* budget 100, defaults: enter at 50/75/100, exit below 0.5 x entry,
   [quiesce_samples] calm observations per descent step. *)
let machine ?(quiesce_samples = 2) () =
  Pressure.create (Pressure.make_config ~quiesce_samples ~budget:100 ())

let test_ascent_is_immediate () =
  let p = machine () in
  Alcotest.check level "starts healthy" Pressure.Healthy (Pressure.level p);
  (* One burst observation must jump straight to the highest qualifying
     level — no one-step climb through the intermediate levels. *)
  Alcotest.check level "burst skips to shed-all" Pressure.Degraded_all
    (Pressure.observe p ~gauge:120 ~queued:0 ~now:0.1);
  check_int "one transition" 1 (List.length (Pressure.transitions p));
  Alcotest.check level "max level recorded" Pressure.Degraded_all
    (Pressure.max_level p);
  (* The queued backlog weighs into the ratio (weight 1.0 here). *)
  let q = machine () in
  Alcotest.check level "queue backlog alone can trip it" Pressure.Pressured
    (Pressure.observe q ~gauge:10 ~queued:45 ~now:0.1)

let test_descent_is_hysteretic () =
  let p = machine () in
  ignore (Pressure.observe p ~gauge:120 ~queued:0 ~now:0.1);
  (* Calm for Degraded_all means ratio < 0.5 * 1.0: gauge < 50. *)
  Alcotest.check level "one calm sample holds" Pressure.Degraded_all
    (Pressure.observe p ~gauge:40 ~queued:0 ~now:0.2);
  (* A noisy sample (below entry, above the exit margin) resets the
     dwell counter — this is the anti-flap property. *)
  Alcotest.check level "noisy sample holds" Pressure.Degraded_all
    (Pressure.observe p ~gauge:60 ~queued:0 ~now:0.3);
  Alcotest.check level "dwell restarted: first calm holds" Pressure.Degraded_all
    (Pressure.observe p ~gauge:40 ~queued:0 ~now:0.4);
  Alcotest.check level "second consecutive calm descends ONE level"
    Pressure.Degraded_ttl
    (Pressure.observe p ~gauge:40 ~queued:0 ~now:0.5);
  (* gauge 40 was calm for Degraded_all (entry 1.0) but is NOT calm for
     Degraded_ttl (entry 0.75, margin 0.5 -> needs < 37.5): the margin
     is relative to the CURRENT level's entry threshold. *)
  Alcotest.check level "same gauge no longer calm one level down"
    Pressure.Degraded_ttl
    (Pressure.observe p ~gauge:40 ~queued:0 ~now:0.6);
  Alcotest.check level "still held" Pressure.Degraded_ttl
    (Pressure.observe p ~gauge:40 ~queued:0 ~now:0.7);
  (* Truly quiet: walk the remaining levels down two samples at a time. *)
  Alcotest.check level "calm 1" Pressure.Degraded_ttl
    (Pressure.observe p ~gauge:5 ~queued:0 ~now:0.8);
  Alcotest.check level "down to pressured" Pressure.Pressured
    (Pressure.observe p ~gauge:5 ~queued:0 ~now:0.9);
  Alcotest.check level "calm 1" Pressure.Pressured
    (Pressure.observe p ~gauge:5 ~queued:0 ~now:1.0);
  Alcotest.check level "home" Pressure.Healthy
    (Pressure.observe p ~gauge:5 ~queued:0 ~now:1.1);
  (* A relapse from mid-ladder ascends immediately again. *)
  ignore (Pressure.observe p ~gauge:55 ~queued:0 ~now:1.2);
  Alcotest.check level "relapse jumps from pressured to shed-all"
    Pressure.Degraded_all
    (Pressure.observe p ~gauge:500 ~queued:0 ~now:1.3);
  check_int "peak gauge tracked" 500 (Pressure.peak_gauge p);
  check "peak ratio tracked" true (Pressure.peak_ratio p = 5.0)

let test_pressure_config_validation () =
  let rejects name f =
    match f () with
    | (_ : Pressure.config) ->
        Alcotest.failf "make_config accepted %s" name
    | exception Invalid_argument _ -> check name true true
  in
  rejects "budget 0" (fun () -> Pressure.make_config ~budget:0 ());
  rejects "inverted enter thresholds" (fun () ->
      Pressure.make_config ~enter_pressured:0.9 ~enter_degraded:0.5
        ~budget:100 ());
  rejects "shed-all below degraded" (fun () ->
      Pressure.make_config ~enter_degraded:0.9 ~enter_shed_all:0.8
        ~budget:100 ());
  rejects "exit margin > 1" (fun () ->
      Pressure.make_config ~exit_margin:1.5 ~budget:100 ());
  rejects "zero dwell" (fun () ->
      Pressure.make_config ~quiesce_samples:0 ~budget:100 ());
  rejects "negative queue weight" (fun () ->
      Pressure.make_config ~queue_weight:(-1.0) ~budget:100 ())

(* --- backoff --- *)

let test_backoff_delay_schedule () =
  let p = Backoff.make_policy ~base_s:0.001 ~cap_s:0.004 ~max_attempts:8 () in
  (* u = 0 is the jitter floor (half the nominal delay); the nominal
     doubles per attempt and clamps at the cap. *)
  check_float "attempt 1 floor" 0.0005 (Backoff.delay p ~attempt:1 ~u:0.0);
  check_float "attempt 2 floor" 0.001 (Backoff.delay p ~attempt:2 ~u:0.0);
  check_float "attempt 3 floor" 0.002 (Backoff.delay p ~attempt:3 ~u:0.0);
  check_float "attempt 4 hits the cap" 0.002
    (Backoff.delay p ~attempt:4 ~u:0.0);
  check_float "attempt 8 stays capped" 0.002
    (Backoff.delay p ~attempt:8 ~u:0.0);
  (* u scales linearly from half to full. *)
  check_float "mid jitter" 0.00075 (Backoff.delay p ~attempt:1 ~u:0.5);
  let rejects name f =
    match f () with
    | (_ : Backoff.policy) -> Alcotest.failf "make_policy accepted %s" name
    | exception Invalid_argument _ -> check name true true
  in
  rejects "base 0" (fun () -> Backoff.make_policy ~base_s:0.0 ());
  rejects "cap below base" (fun () ->
      Backoff.make_policy ~base_s:0.01 ~cap_s:0.001 ());
  rejects "zero attempts" (fun () -> Backoff.make_policy ~max_attempts:0 ())

(* [run] on a simulated clock: sleeps advance time, nothing blocks. *)
let run_sim policy ~deadline thunk =
  let clock = ref 0.0 in
  let retries = ref 0 in
  let rng = Harness.Workload.Rng.create ~seed:7 in
  let out =
    Backoff.run policy ~rng
      ~now:(fun () -> !clock)
      ~sleep:(fun s -> clock := !clock +. s)
      ~deadline
      ~on_retry:(fun ~attempt:_ -> incr retries)
      thunk
  in
  (out, !retries, !clock)

let test_backoff_run () =
  let p = Backoff.make_policy ~base_s:0.001 ~cap_s:0.01 ~max_attempts:4 () in
  (* Succeeds on the third try: two retries, done. *)
  let calls = ref 0 in
  let out, retries, _ =
    run_sim p ~deadline:10.0 (fun () ->
        incr calls;
        if !calls < 3 then `Overload else `Done !calls)
  in
  check "eventual success" true (out = `Done 3);
  check_int "two retries" 2 retries;
  (* Overloaded forever: the attempt budget caps the calls. *)
  let calls = ref 0 in
  let out, _, _ =
    run_sim p ~deadline:10.0 (fun () ->
        incr calls;
        `Overload)
  in
  check "budget exhausted" true (out = `Overload);
  check_int "exactly max_attempts calls" 4 !calls;
  (* A deadline in the past short-circuits without burning attempts;
     [`Deadline_exceeded] from the thunk is terminal, not retried. *)
  let calls = ref 0 in
  let out, _, _ =
    run_sim p ~deadline:(-1.0) (fun () ->
        incr calls;
        `Overload)
  in
  check "dead on arrival" true (out = `Deadline_exceeded);
  check "deadline refusal costs at most one call" true (!calls <= 1);
  let calls = ref 0 in
  let out, retries, _ =
    run_sim p ~deadline:10.0 (fun () ->
        incr calls;
        `Deadline_exceeded)
  in
  check "terminal deadline result" true (out = `Deadline_exceeded);
  check_int "no retry after a terminal result" 0 retries

(* --- supervisor respawn backoff --- *)

let test_respawn_delay () =
  let c = Supervisor.default in
  (* First respawn is immediate; from the second on, base 0.05 doubling
     per restart, clamped at 1.0, jittered into [0.5, 1.0] of itself. *)
  check_float "restart 1 is immediate" 0.0
    (Supervisor.respawn_delay c ~restarts:1 ~u:0.9);
  check_float "restart 2 floor" 0.025
    (Supervisor.respawn_delay c ~restarts:2 ~u:0.0);
  check_float "restart 3 floor" 0.05
    (Supervisor.respawn_delay c ~restarts:3 ~u:0.0);
  check_float "restart 4 floor" 0.1
    (Supervisor.respawn_delay c ~restarts:4 ~u:0.0);
  (* 0.05 * 2^5 = 1.6 clamps to the 1.0 cap before jitter. *)
  check_float "deep restart clamps to the cap" 0.5
    (Supervisor.respawn_delay c ~restarts:7 ~u:0.0);
  check_float "jitter scales the clamped delay" 0.75
    (Supervisor.respawn_delay c ~restarts:7 ~u:0.5);
  (* Monotone in the restart count for a fixed draw. *)
  let prev = ref 0.0 in
  for r = 1 to 8 do
    let d = Supervisor.respawn_delay c ~restarts:r ~u:0.25 in
    check "monotone non-decreasing" true (d >= !prev);
    check "never above the cap" true (d <= c.Supervisor.backoff_cap);
    prev := d
  done

(* --- store admission --- *)

let hln = Smr.Registry.find_exn "HLN"

let mk_store ?(scheme = hln) ?(shards = 1) () =
  Store.create ~buckets:8 ~backend:Shard.Hashmap ~scheme ~shards ~threads:1 ()

let test_admission_disarmed () =
  let store = mk_store () in
  let clock = ref 100.0 in
  let c = Store.client ~now:(fun () -> !clock) store ~tid:0 in
  (* No pressure armed: every level is Healthy, writes always admitted. *)
  check "put admitted" true (Store.enqueue_put c 1 = `Queued);
  check "ttl put admitted" true (Store.enqueue_put ~ttl_s:5.0 c 2 = `Queued);
  check "delete admitted" true (Store.enqueue_delete c 1 = `Queued);
  (* The deadline gate still applies, on the client's injected clock. *)
  check "future deadline admits" true
    (Store.enqueue_put ~deadline:101.0 c 3 = `Queued);
  check "past deadline refuses" true
    (Store.enqueue_put ~deadline:99.0 c 4 = `Deadline_exceeded);
  check "deletes refuse past deadlines too" true
    (Store.enqueue_delete ~deadline:99.0 c 2 = `Deadline_exceeded);
  check_int "deadline rejections counted" 2
    (Stats.deadline_reject_total (Store.stats store));
  check_int "nothing shed" 0 (Stats.shed_total (Store.stats store));
  (* Refused writes never reach the structure. *)
  Alcotest.(check (array bool))
    "admitted writes landed, refused ones did not"
    [| false; true; true; false |]
    (Store.get_many c [| 1; 2; 3; 4 |]);
  Store.teardown store

(* Drive a real shard gauge up (deletes park retired nodes in limbo),
   then observe with a config whose thresholds put the shard exactly at
   the level under test.  The churn stays below one HLN batch (32): the
   shard's one registration holds every retired node, and a full batch
   would dispatch and drain the gauge to zero. *)
let pressurize store ~enter_degraded ~enter_shed_all =
  let clock = ref 0.0 in
  let c = Store.client ~now:(fun () -> !clock) store ~tid:0 in
  for k = 0 to 15 do
    ignore (Store.put c k)
  done;
  for k = 0 to 15 do
    ignore (Store.delete c k)
  done;
  let gauge = Store.unreclaimed store in
  check "churn left a live gauge" true (gauge > 0);
  (* budget = gauge so ratio = 1.0 lands wherever the thresholds say. *)
  Store.arm_pressure store
    [|
      Pressure.make_config ~enter_pressured:0.2 ~enter_degraded
        ~enter_shed_all ~budget:gauge ();
    |];
  ignore (Store.observe_pressure store ~now:0.0);
  (c, clock)

let test_admission_sheds_ttl_writes () =
  let store = mk_store () in
  (* ratio 1.0 sits in [0.8, 2.0): Degraded_ttl. *)
  let c, _ = pressurize store ~enter_degraded:0.8 ~enter_shed_all:2.0 in
  Alcotest.check level "shard degraded-ttl" Pressure.Degraded_ttl
    (Store.shard_level store 0);
  check "ttl put shed" true (Store.enqueue_put ~ttl_s:5.0 c 100 = `Overload);
  check "durable put flows" true (Store.enqueue_put c 101 = `Queued);
  check "delete flows" true (Store.enqueue_delete c 102 = `Queued);
  check "reads flow" true (Store.get_many c [| 101 |] = [| true |]);
  let st = Store.stats store in
  check_int "ttl sheds counted" 1 (Stats.shed_ttl_total st);
  check_int "no blanket sheds" 0 (Stats.shed_write_total st);
  Store.teardown store

let test_admission_sheds_all_writes () =
  let store = mk_store () in
  (* ratio 1.0 >= 0.9: Degraded_all. *)
  let c, clock = pressurize store ~enter_degraded:0.8 ~enter_shed_all:0.9 in
  Alcotest.check level "shard degraded-all" Pressure.Degraded_all
    (Store.shard_level store 0);
  check "durable put shed" true (Store.enqueue_put c 100 = `Overload);
  (* The shed path pays for its own garbage (handles are single-owner):
     the refusal swept the client's limbo, so the gauge has already
     fallen and the machine can descend on later observations — the
     deadlock guard behind [Degraded_all]. *)
  check "shed housekeeping drained the refusing client's limbo" true
    (Store.unreclaimed store = 0);
  check "ttl put shed" true (Store.enqueue_put ~ttl_s:5.0 c 101 = `Overload);
  check "delete shed" true (Store.enqueue_delete c 0 = `Overload);
  (* The deadline is checked first: a late write is not an overload. *)
  clock := 10.0;
  check "late write is refused by its deadline" true
    (Store.enqueue_put ~deadline:5.0 c 102 = `Deadline_exceeded);
  (* Reads are never shed — that is what the write shedding buys. *)
  check "reads flow under shed-all" true
    (Store.get_many c [| 0; 1 |] = [| false; false |]);
  let st = Store.stats store in
  check_int "blanket sheds counted" 2 (Stats.shed_write_total st);
  check_int "ttl put counted as a ttl shed" 1 (Stats.shed_ttl_total st);
  check_int "deadline rejection counted" 1 (Stats.deadline_reject_total st);
  check_int "nothing was queued" 0 (Store.pending c);
  Store.teardown store

(* The negative control's contract: an armed store of a non-robust
   scheme (NR never reclaims, so the churn's gauge stays put) walks the
   same levels and records its transitions, but admits every write. *)
let test_admission_shedding_off () =
  let store = mk_store ~scheme:(Smr.Registry.find_exn "NR") () in
  check "NR store is not robust" false (Store.robust store);
  let c, _ = pressurize store ~enter_degraded:0.8 ~enter_shed_all:0.9 in
  Alcotest.check level "shard degraded-all" Pressure.Degraded_all
    (Store.shard_level store 0);
  check "ttl put admitted" true (Store.enqueue_put ~ttl_s:5.0 c 100 = `Queued);
  check "put admitted" true (Store.enqueue_put c 101 = `Queued);
  check "delete admitted" true (Store.enqueue_delete c 100 = `Queued);
  check_int "nothing shed" 0 (Stats.shed_total (Store.stats store));
  Alcotest.(check (array bool))
    "admitted writes landed" [| false; true |]
    (Store.get_many c [| 100; 101 |]);
  (match Store.pressure store 0 with
  | Some p -> (
      match List.rev (Pressure.transitions p) with
      | last :: _ ->
          Alcotest.check level "transition into degraded-all recorded"
            Pressure.Degraded_all last.Pressure.tr_to
      | [] -> Alcotest.fail "no transition recorded")
  | None -> Alcotest.fail "store not armed");
  Store.teardown store

let test_admission_legacy_path_ungated () =
  let store = mk_store () in
  let c, _ = pressurize store ~enter_degraded:0.8 ~enter_shed_all:0.9 in
  Alcotest.check level "shard degraded-all" Pressure.Degraded_all
    (Store.shard_level store 0);
  (* The immediate path is the one-bracket-per-op baseline and stays
     ungated. *)
  check "immediate put flows" true (Store.put c 200);
  check "immediate get flows" true (Store.get c 200);
  check "immediate delete flows" true (Store.delete c 200);
  Store.teardown store

let () =
  Alcotest.run "pressure"
    [
      ( "machine",
        [
          Alcotest.test_case "ascent is immediate" `Quick
            test_ascent_is_immediate;
          Alcotest.test_case "descent is hysteretic" `Quick
            test_descent_is_hysteretic;
          Alcotest.test_case "config validation" `Quick
            test_pressure_config_validation;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "delay schedule" `Quick test_backoff_delay_schedule;
          Alcotest.test_case "run retries and deadlines" `Quick
            test_backoff_run;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "respawn delay backoff" `Quick test_respawn_delay;
        ] );
      ( "admission",
        [
          Alcotest.test_case "disarmed store admits everything" `Quick
            test_admission_disarmed;
          Alcotest.test_case "degraded-ttl sheds ttl writes" `Quick
            test_admission_sheds_ttl_writes;
          Alcotest.test_case "degraded-all sheds every write" `Quick
            test_admission_sheds_all_writes;
          Alcotest.test_case "shedding off admits every write" `Quick
            test_admission_shedding_off;
          Alcotest.test_case "legacy path stays ungated" `Quick
            test_admission_legacy_path_ungated;
        ] );
    ]
