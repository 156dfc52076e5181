(* Harness tests: workload generation, the type-erased instance registry,
   the timed runner, and report formatting. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- workload --- *)

let test_rng_deterministic () =
  let a = Harness.Workload.Rng.create ~seed:42 in
  let b = Harness.Workload.Rng.create ~seed:42 in
  for _ = 1 to 1000 do
    check_int "same stream" (Harness.Workload.Rng.int a 1_000_000)
      (Harness.Workload.Rng.int b 1_000_000)
  done

let test_rng_bounds () =
  let r = Harness.Workload.Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Harness.Workload.Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_mix_validation () =
  match Harness.Workload.mix ~read:50 ~insert:30 ~delete:30 with
  | _ -> Alcotest.fail "invalid mix accepted"
  | exception Invalid_argument _ -> ()

let test_mix_distribution () =
  let r = Harness.Workload.Rng.create ~seed:3 in
  let mix = Harness.Workload.read_write_50 in
  let reads = ref 0 and inserts = ref 0 and deletes = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    match Harness.Workload.op_for r mix with
    | Harness.Workload.Search -> incr reads
    | Harness.Workload.Insert -> incr inserts
    | Harness.Workload.Delete -> incr deletes
  done;
  let pct x = 100 * x / n in
  check "~50% reads" true (abs (pct !reads - 50) <= 2);
  check "~25% inserts" true (abs (pct !inserts - 25) <= 2);
  check "~25% deletes" true (abs (pct !deletes - 25) <= 2)

let test_prefill_unique_half () =
  let keys = Harness.Workload.prefill_keys ~range:1000 ~seed:1 in
  check_int "half the range" 500 (Array.length keys);
  let s = List.sort_uniq compare (Array.to_list keys) in
  check_int "all unique" 500 (List.length s);
  check "all in range" true (List.for_all (fun k -> k >= 0 && k < 1000) s);
  (* Not sorted (shuffled) — a sorted prefill would degenerate the tree. *)
  check "shuffled" true (Array.to_list keys <> List.sort compare (Array.to_list keys))

(* --- instance registry --- *)

let test_registry () =
  check "HList present" true
    (Harness.Instance.find_builder "hlist" <> None);
  check "case-insensitive" true
    (Harness.Instance.find_builder "nmtree" <> None);
  (match Harness.Instance.find_builder_exn "bogus" with
  | _ -> Alcotest.fail "unknown builder accepted"
  | exception Invalid_argument _ -> ());
  let unsafe = Harness.Instance.find_builder_exn "HListUnsafe" in
  check "unsafe marked" false unsafe.safe_for_robust;
  List.iter
    (fun (b : Harness.Instance.builder) ->
      if b.name <> "HListUnsafe" then
        check (b.name ^ " safe") true b.safe_for_robust)
    Harness.Instance.builders

(* Every builder must produce a working instance for every scheme. *)
let test_all_builders_all_schemes () =
  List.iter
    (fun (b : Harness.Instance.builder) ->
      List.iter
        (fun scheme ->
          let (module S : Smr.Smr_intf.S) = scheme in
          let i = b.build scheme ~threads:2 () in
          let name = b.name ^ "/" ^ S.name in
          Alcotest.(check string) (name ^ " structure") b.name i.structure;
          Alcotest.(check string) (name ^ " scheme") S.name i.scheme;
          check "insert" true (i.Harness.Instance.insert ~tid:0 10);
          check "search from another tid" true
            (i.Harness.Instance.search ~tid:1 10);
          check "delete" true (i.Harness.Instance.delete ~tid:1 10);
          (* The fault drivers' sentinel key (see [Instance.drive]). *)
          let sentinel = i.max_key - 1 in
          check (name ^ " sentinel insert") true (i.insert ~tid:0 sentinel);
          check (name ^ " sentinel search") true (i.search ~tid:1 sentinel);
          check (name ^ " sentinel delete") true (i.delete ~tid:1 sentinel);
          check (name ^ " sentinel gone") false (i.search ~tid:0 sentinel);
          i.quiesce ~tid:0;
          i.quiesce ~tid:1)
        Smr.Registry.all)
    Harness.Instance.builders

(* --- runner --- *)

let test_runner_short_run () =
  let r =
    Harness.Runner.run
      ~builder:(Harness.Instance.find_builder_exn "HList")
      ~scheme:(Smr.Registry.find_exn "EBR")
      ~threads:2 ~range:64 ~duration:0.2 ()
  in
  check "ops happened" true (r.ops > 0);
  check "throughput positive" true (r.throughput > 0.0);
  check "no faults" true (r.faults = 0);
  check "final size within range" true
    (r.final_size >= 0 && r.final_size <= 64);
  check "duration close to request" true
    (r.duration >= 0.2 && r.duration < 2.0)

let test_runner_range_guard () =
  match
    Harness.Runner.run
      ~builder:(Harness.Instance.find_builder_exn "NMTree")
      ~scheme:(Smr.Registry.find_exn "EBR")
      ~threads:1 ~range:max_int ~duration:0.1 ()
  with
  | _ -> Alcotest.fail "range beyond key space accepted"
  | exception Invalid_argument _ -> ()

(* --- report --- *)

let test_human_numbers () =
  Alcotest.(check string) "giga" "1.50G" (Harness.Report.human 1.5e9);
  Alcotest.(check string) "mega" "240.00M" (Harness.Report.human 2.4e8);
  Alcotest.(check string) "kilo" "75.0k" (Harness.Report.human 74992.0);
  Alcotest.(check string) "small" "42" (Harness.Report.human 42.0)

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
          Alcotest.test_case "mix validation" `Quick test_mix_validation;
          Alcotest.test_case "mix distribution" `Quick test_mix_distribution;
          Alcotest.test_case "prefill unique half" `Quick
            test_prefill_unique_half;
        ] );
      ( "instances",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "all builders x all schemes" `Quick
            test_all_builders_all_schemes;
        ] );
      ( "runner",
        [
          Alcotest.test_case "short run" `Quick test_runner_short_run;
          Alcotest.test_case "range guard" `Quick test_runner_range_guard;
        ] );
      ( "report",
        [
          Alcotest.test_case "human numbers" `Quick test_human_numbers;
        ] );
    ]
