(* Regression suite for the timed runner and the machine-readable metrics
   pipeline: timing/denominator correctness, median aggregation, latency
   histograms, the timestamped memory series, and BENCH JSON round-trips. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ebr = Smr.Registry.find_exn "EBR"
let hp = Smr.Registry.find_exn "HP"
let hlist = Harness.Instance.find_builder_exn "HList"

let short_run ?(threads = 2) ?(duration = 0.3) () =
  Harness.Runner.run ~builder:hlist ~scheme:ebr ~threads ~range:64 ~duration ()

(* --- timing --- *)

let test_duration_tolerance () =
  let requested = 0.3 in
  let r = short_run ~duration:requested () in
  (* [duration] is the measurement window: it must cover the request but
     not the domain-join teardown (that lives in [wall_total]). *)
  check "duration covers request" true (r.duration >= requested);
  check "duration close to request" true (r.duration < requested +. 0.25);
  check "wall_total includes teardown" true (r.wall_total >= r.duration)

let test_throughput_denominator () =
  let r = short_run () in
  let expected = float_of_int r.ops /. r.duration in
  check "throughput = ops / duration" true
    (Float.abs (r.throughput -. expected) /. expected < 1e-9)

(* --- per-op metrics --- *)

(* An out-of-range [domains] is rejected before the instance is built,
   so [prepare] (which may spawn stall drivers) never runs. *)
let test_domains_checked_first () =
  List.iter
    (fun domains ->
      let prepared = ref false in
      (match
         Harness.Runner.run ~domains ~prepare:(fun _ -> prepared := true)
           ~builder:hlist ~scheme:ebr ~threads:2 ~range:64 ~duration:0.05 ()
       with
      | _ -> Alcotest.failf "domains=%d accepted" domains
      | exception Invalid_argument _ -> ());
      check (Printf.sprintf "domains=%d: prepare not run" domains) false
        !prepared)
    [ 0; 3 ]

let test_op_stats_cover_ops () =
  let r = short_run () in
  check_int "one entry per op kind" 3 (List.length r.op_stats);
  check_int "op_stats counts sum to ops" r.ops
    (Harness.Metrics.total_ops r.op_stats);
  List.iter
    (fun (s : Harness.Metrics.op_stats) ->
      check_int "hits+misses=count" s.count (s.hits + s.misses);
      check_int "every op latency-sampled" s.count s.sampled;
      if s.sampled > 0 then begin
        check "p50 positive" true (s.p50_ns > 0.0);
        check "percentiles ordered" true
          (s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns
          && s.p99_ns <= s.max_ns)
      end)
    r.op_stats

let test_measure_latency_off () =
  let r =
    Harness.Runner.run ~measure_latency:false ~builder:hlist ~scheme:ebr
      ~threads:1 ~range:64 ~duration:0.2 ()
  in
  check_int "counters still cover ops" r.ops
    (Harness.Metrics.total_ops r.op_stats);
  List.iter
    (fun (s : Harness.Metrics.op_stats) ->
      check_int "no latency samples" 0 s.sampled)
    r.op_stats

let test_mem_series_timestamped () =
  let r = short_run () in
  check "series non-empty" true (r.mem_series <> []);
  let rec monotone = function
    | (a : Harness.Metrics.mem_sample) :: (b :: _ as rest) ->
        a.t <= b.t && monotone rest
    | _ -> true
  in
  check "timestamps increase" true (monotone r.mem_series);
  List.iter
    (fun (s : Harness.Metrics.mem_sample) ->
      check "t within run" true (s.t >= 0.0 && s.t <= r.wall_total);
      check "gauge non-negative" true (s.unreclaimed >= 0))
    r.mem_series;
  (* avg/max are derived from the same series. *)
  let max' =
    List.fold_left
      (fun acc (s : Harness.Metrics.mem_sample) -> max acc s.unreclaimed)
      0 r.mem_series
  in
  check_int "max_unreclaimed matches series" max' r.max_unreclaimed

let test_scheme_stats_exposed () =
  let r = short_run () in
  check "EBR exposes epoch" true (List.mem_assoc "epoch" r.scheme_stats);
  check "EBR exposes in_limbo" true (List.mem_assoc "in_limbo" r.scheme_stats)

(* --- fault path --- *)

let test_fault_final_size () =
  (* The unsafe Harris list under HP with aggressive reclamation faults with
     overwhelming probability; retry a few short attempts like
     test_unsafe.ml does. *)
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:4 ~batch_size:1
      ~threads:8 ()
  in
  let unsafe = Harness.Instance.find_builder_exn "HListUnsafe" in
  let rec attempt n =
    let r =
      Harness.Runner.run ~builder:unsafe ~scheme:hp ~threads:8 ~range:16
        ~mix:(Harness.Workload.mix ~read:20 ~insert:40 ~delete:40)
        ~duration:0.5 ~config ~check:false ()
    in
    if r.faults > 0 then r else if n = 0 then r else attempt (n - 1)
  in
  let r = attempt 5 in
  check "fault observed" true (r.faults > 0);
  check_int "faulted run reports final_size = -1" (-1) r.final_size

(* --- median aggregation --- *)

let mk_result tp =
  {
    Harness.Runner.structure = "X";
    scheme = "S";
    threads = 1;
    range = 16;
    mix = Harness.Workload.read_write_50;
    ops = 100;
    duration = 1.0;
    wall_total = 1.1;
    throughput = tp;
    restarts = 0;
    avg_unreclaimed = 0.0;
    max_unreclaimed = 0;
    mem_series = [];
    op_stats = [];
    scheme_stats = [];
    faults = 0;
    final_size = 0;
    recoveries = [];
  }

let median_throughput tps =
  (Harness.Experiments.median_result (List.map mk_result tps)).throughput

let test_median_repeats () =
  (* repeats = 1 *)
  Alcotest.(check (float 0.0)) "1 repeat" 10.0 (median_throughput [ 10.0 ]);
  (* repeats = 2: lower-middle, not the upper-middle of the old bug *)
  Alcotest.(check (float 0.0))
    "2 repeats takes lower-middle" 10.0
    (median_throughput [ 20.0; 10.0 ]);
  (* repeats = 3: the true middle *)
  Alcotest.(check (float 0.0))
    "3 repeats" 20.0
    (median_throughput [ 30.0; 10.0; 20.0 ]);
  (* repeats = 4: lower-middle of the sorted four *)
  Alcotest.(check (float 0.0))
    "4 repeats takes lower-middle" 20.0
    (median_throughput [ 40.0; 10.0; 30.0; 20.0 ]);
  match Harness.Experiments.median_result [] with
  | _ -> Alcotest.fail "empty repeats accepted"
  | exception Invalid_argument _ -> ()

(* Paired ratios alternate which side runs first and score the median
   per-pair ratio, returning the pair it came from. *)
let test_paired_median () =
  let order = ref [] in
  let side name values =
    let next = ref values in
    fun () ->
      order := name :: !order;
      match !next with
      | v :: rest ->
          next := rest;
          v
      | [] -> Alcotest.fail "paired_median ran too many rounds"
  in
  let rounds, pair, ratio =
    Harness.Experiments.paired_median ~pairs:5
      ~ratio:(fun (a, b) -> a /. b)
      (side "a" [ 5.0; 1.0; 3.0; 9.0; 2.0 ])
      (side "b" [ 1.0; 1.0; 1.0; 1.0; 1.0 ])
  in
  Alcotest.(check (list string))
    "alternating order"
    [ "a"; "b"; "b"; "a"; "a"; "b"; "b"; "a"; "a"; "b" ]
    (List.rev !order);
  check_int "every round kept" 5 (List.length rounds);
  Alcotest.(check (float 0.0)) "median ratio" 3.0 ratio;
  Alcotest.(check (pair (float 0.0) (float 0.0))) "median pair" (3.0, 1.0) pair

(* --- histogram buckets --- *)

let test_bucket_of_ns () =
  check_int "0ns" 0 (Harness.Metrics.bucket_of_ns 0);
  check_int "1ns" 0 (Harness.Metrics.bucket_of_ns 1);
  check_int "2ns" 1 (Harness.Metrics.bucket_of_ns 2);
  check_int "3ns" 1 (Harness.Metrics.bucket_of_ns 3);
  check_int "4ns" 2 (Harness.Metrics.bucket_of_ns 4);
  check_int "1023ns" 9 (Harness.Metrics.bucket_of_ns 1023);
  check_int "1024ns" 10 (Harness.Metrics.bucket_of_ns 1024);
  (* OCaml ints are 63-bit: max_int = 2^62 - 1, top bit index 61. *)
  check_int "max_int" 61 (Harness.Metrics.bucket_of_ns max_int)

(* --- JSON --- *)

let test_json_roundtrip_values () =
  let j =
    Harness.Json.(
      Obj
        [
          ("i", Int 42);
          ("f", Float 1.5);
          ("s", String "a \"quoted\" line\nwith, commas");
          ("b", Bool true);
          ("n", Null);
          ("l", List [ Int 1; Float 2.25; String "x" ]);
          ("o", Obj [ ("nested", List []) ]);
        ])
  in
  check "compact round-trip" true
    (Harness.Json.of_string (Harness.Json.to_string j) = j);
  check "pretty round-trip" true
    (Harness.Json.of_string (Harness.Json.to_string_pretty j) = j);
  (match Harness.Json.of_string "{broken" with
  | _ -> Alcotest.fail "malformed JSON accepted"
  | exception Harness.Json.Parse_error _ -> ());
  match Harness.Json.of_string "[1,2] garbage" with
  | _ -> Alcotest.fail "trailing garbage accepted"
  | exception Harness.Json.Parse_error _ -> ()

(* Emit a BENCH file from a real run, parse it back, and validate the
   schema keys the trajectory tooling depends on. *)
let test_bench_file_roundtrip () =
  let r = short_run () in
  let path = Filename.temp_file "BENCH_test" ".json" in
  Harness.Report.write_bench_doc ~path ~name:"test"
    ~meta:[ ("extra", Harness.Json.String "meta") ]
    [ Harness.Report.result_json r ];
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  let doc = Harness.Json.of_string contents in
  let open Harness.Json in
  check_int "schema_version" Harness.Report.schema_version
    (match member_exn "schema_version" doc with Int i -> i | _ -> -1);
  (match member_exn "name" doc with
  | String s -> check_string "name" "test" s
  | _ -> Alcotest.fail "name not a string");
  check "git_rev present" true (member "git_rev" doc <> None);
  check "host present" true (member "host" doc <> None);
  check "meta pairs embedded" true (member "extra" doc <> None);
  let runs =
    match to_list (member_exn "runs" doc) with
    | Some rs -> rs
    | None -> Alcotest.fail "runs not a list"
  in
  check_int "one run" 1 (List.length runs);
  let run = List.hd runs in
  List.iter
    (fun key -> check (key ^ " present") true (member key run <> None))
    [
      "structure"; "scheme"; "threads"; "range"; "mix"; "ops"; "duration";
      "wall_total"; "throughput"; "restarts"; "avg_unreclaimed";
      "max_unreclaimed"; "faults"; "final_size"; "op_stats"; "mem_series";
      "scheme_stats";
    ];
  (* Numbers survive the round-trip. *)
  (match number (member_exn "throughput" run) with
  | Some tp ->
      check "throughput value" true
        (Float.abs (tp -. r.throughput) /. r.throughput < 1e-6)
  | None -> Alcotest.fail "throughput not a number");
  (* Latency percentiles per op kind. *)
  let op_stats =
    match to_list (member_exn "op_stats" run) with
    | Some l -> l
    | None -> Alcotest.fail "op_stats not a list"
  in
  check_int "three op kinds" 3 (List.length op_stats);
  List.iter
    (fun s ->
      List.iter
        (fun key -> check ("op_stats." ^ key) true (member key s <> None))
        [ "op"; "hits"; "misses"; "count"; "p50_ns"; "p99_ns"; "hist" ])
    op_stats;
  (* Timestamped memory series. *)
  let series =
    match to_list (member_exn "mem_series" run) with
    | Some l -> l
    | None -> Alcotest.fail "mem_series not a list"
  in
  check "series non-empty" true (series <> []);
  List.iter
    (fun s ->
      check "sample has t" true (member "t" s <> None);
      check "sample has unreclaimed" true (member "unreclaimed" s <> None))
    series;
  (* Scheme counters. *)
  match member_exn "scheme_stats" run with
  | Obj kvs -> check "scheme stats non-empty" true (kvs <> [])
  | _ -> Alcotest.fail "scheme_stats not an object"

(* --- report formatting --- *)

let test_section_collapses_whitespace () =
  let path = Filename.temp_file "scot_section" ".txt" in
  let oc = open_out path in
  Harness.Report.section ~out:oc "Extension:  SkipList,        range\n 512";
  close_out oc;
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  check_string "interior runs collapsed"
    "\n=== Extension: SkipList, range 512 ===\n" contents

let () =
  Alcotest.run "runner"
    [
      ( "timing",
        [
          Alcotest.test_case "duration tolerance" `Quick
            test_duration_tolerance;
          Alcotest.test_case "throughput denominator" `Quick
            test_throughput_denominator;
          Alcotest.test_case "domains checked before prepare" `Quick
            test_domains_checked_first;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "op stats cover ops" `Quick
            test_op_stats_cover_ops;
          Alcotest.test_case "latency off still counts" `Quick
            test_measure_latency_off;
          Alcotest.test_case "mem series timestamped" `Quick
            test_mem_series_timestamped;
          Alcotest.test_case "scheme stats exposed" `Quick
            test_scheme_stats_exposed;
          Alcotest.test_case "histogram buckets" `Quick test_bucket_of_ns;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "median repeats 1-4" `Quick test_median_repeats;
          Alcotest.test_case "paired median" `Quick test_paired_median;
        ]
      );
      ( "fault path",
        [
          Alcotest.test_case "faulted run final_size" `Slow
            test_fault_final_size;
        ] );
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick
            test_json_roundtrip_values;
          Alcotest.test_case "BENCH file round-trip" `Quick
            test_bench_file_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "section collapses whitespace" `Quick
            test_section_collapses_whitespace;
        ] );
    ]
