(* Harris' list with SCOT: the generic battery over every SMR scheme plus
   list-specific behaviours (restart accounting, recovery optimisation
   variants, optimistic-traversal cleanup, pool recycling). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let builder = Harness.Instance.find_builder_exn "HList"
let builder_norec = Harness.Instance.find_builder_exn "HList-norec"
let hp = Smr.Registry.find_exn "HP"

module L = Scot.Harris_list.Make (Smr.Hp)

let mk ?(threads = 1) () =
  let smr = Smr.Hp.create ~threads ~slots:Scot.Harris_list.slots_needed () in
  let t = L.create ~smr ~threads () in
  (t, Array.init threads (fun tid -> L.handle t ~tid))

(* Marked chains are removed lazily: a search must skip over a logically
   deleted node without unlinking it (read-only optimistic traversal). *)
let test_optimistic_skip () =
  let t, hs = mk () in
  let h = hs.(0) in
  List.iter (fun k -> assert (L.insert h k)) [ 1; 2; 3 ];
  assert (L.delete h 2);
  check "2 logically gone" false (L.search h 2);
  check "3 reachable through/past the chain" true (L.search h 3);
  check "1 intact" true (L.search h 1);
  L.check_invariants t;
  check "sorted contents" true (L.to_list t = [ 1; 3 ])

let test_to_list_sorted () =
  let t, hs = mk () in
  let h = hs.(0) in
  List.iter (fun k -> ignore (L.insert h k)) [ 9; 1; 7; 3; 5; 1; 9 ];
  check "sorted unique" true (L.to_list t = [ 1; 3; 5; 7; 9 ])

let test_restart_counter_starts_zero () =
  let t, hs = mk () in
  let h = hs.(0) in
  for k = 0 to 99 do
    ignore (L.insert h k)
  done;
  for k = 0 to 99 do
    ignore (L.search h k)
  done;
  check_int "no restarts single-threaded" 0 (L.restarts t)

let test_pool_recycling_after_churn () =
  let t, hs = mk () in
  let h = hs.(0) in
  for i = 0 to 2_000 do
    ignore (L.insert h (i mod 10));
    ignore (L.delete h (i mod 10))
  done;
  L.quiesce h;
  let stats = L.pool_stats t in
  let freed = List.assoc "freed" stats in
  let recycled = List.assoc "recycled" stats in
  check "nodes were freed" true (freed > 1_000);
  check "nodes were recycled" true (recycled > 1_000);
  check_int "nothing left in limbo after quiesce" 0 (L.unreclaimed t)

let test_key_bounds () =
  let t, hs = mk () in
  let h = hs.(0) in
  (match L.insert h max_int with
  | _ -> Alcotest.fail "max_int key must be rejected (tail sentinel)"
  | exception Invalid_argument _ -> ());
  check "min_int accepted" true (L.insert h min_int);
  check "negative keys work" true (L.insert h (-5));
  check "search negative" true (L.search h (-5));
  check "ordering with negatives" true (L.to_list t = [ min_int; -5 ])

(* range_mem at quiescence agrees with filtering to_list, for every
   scheme (the scan exercises guard composition: multiple live guards
   under one bracket token). *)
let test_range_mem (module S : Smr.Smr_intf.S) () =
  let module LS = Scot.Harris_list.Make (S) in
  let smr = S.create ~threads:1 ~slots:Scot.Harris_list.slots_needed () in
  let t = LS.create ~smr ~threads:1 () in
  let h = LS.handle t ~tid:0 in
  List.iter (fun k -> ignore (LS.insert h k)) [ 2; 3; 5; 7; 11; 13; -4 ];
  ignore (LS.delete h 5);
  let expect lo hi = List.filter (fun k -> k >= lo && k <= hi) (LS.to_list t) in
  List.iter
    (fun (lo, hi) ->
      check
        (Printf.sprintf "%s range [%d, %d] = filtered to_list" S.name lo hi)
        true
        (LS.range_mem h ~lo ~hi = expect lo hi))
    [
      (0, 20);
      (3, 7);
      (min_int, max_int);
      (6, 6);
      (7, 7);
      (8, 2);
      (-10, 0);
      (14, 1000);
    ]

(* Scans stay well-formed under concurrent churn: sorted, duplicate-free,
   inside the requested window, and keys untouched for the whole scan are
   always present. *)
let test_range_mem_concurrent () =
  let threads = 3 in
  let t, hs = mk ~threads () in
  let h0 = hs.(0) in
  for k = 100 to 119 do
    ignore (L.insert h0 k)
  done;
  let stop = Atomic.make false in
  let churn tid =
    Domain.spawn (fun () ->
        let h = hs.(tid) in
        let i = ref 0 in
        while not (Atomic.get stop) do
          ignore (L.insert h (!i mod 50));
          ignore (L.delete h (!i mod 50));
          incr i
        done)
  in
  let d1 = churn 1 and d2 = churn 2 in
  let rec sorted_dedup = function
    | a :: (b :: _ as tl) -> a < b && sorted_dedup tl
    | _ -> true
  in
  let stable = List.init 20 (fun i -> 100 + i) in
  let ok = ref true in
  for _ = 1 to 500 do
    let r = L.range_mem h0 ~lo:0 ~hi:200 in
    if not (sorted_dedup r) then ok := false;
    if List.filter (fun k -> k >= 100) r <> stable then ok := false;
    if List.exists (fun k -> k < 0 || k > 200) r then ok := false
  done;
  Atomic.set stop true;
  Domain.join d1;
  Domain.join d2;
  L.check_invariants t;
  check "scans sorted, windowed, stable keys present" true !ok

(* The recovery optimisation must not change semantics, only restart
   behaviour: run the same concurrent workload with and without it. *)
let test_recovery_equivalence () =
  List.iter
    (fun b -> Test_support.Ds_tests.concurrent_partition ~threads:4 ~range:32 ~ops:8_000 b hp ())
    [ builder; builder_norec ]

let () =
  Alcotest.run "harris_list"
    (Test_support.Ds_tests.full_suite builder
    @ [
        ( "list-specific",
          [
            Alcotest.test_case "optimistic skip of marked nodes" `Quick
              test_optimistic_skip;
            Alcotest.test_case "to_list sorted unique" `Quick
              test_to_list_sorted;
            Alcotest.test_case "no restarts single-threaded" `Quick
              test_restart_counter_starts_zero;
            Alcotest.test_case "pool recycling after churn" `Quick
              test_pool_recycling_after_churn;
            Alcotest.test_case "key bounds" `Quick test_key_bounds;
            Alcotest.test_case "recovery on/off equivalence" `Quick
              test_recovery_equivalence;
          ] );
        ( "range-mem",
          List.map
            (fun s ->
              Alcotest.test_case
                (Printf.sprintf "quiescent agreement (%s)"
                   (let module S = (val s : Smr.Smr_intf.S) in
                   S.name))
                `Quick (test_range_mem s))
            Smr.Registry.all
          @ [
              Alcotest.test_case "well-formed under churn" `Quick
                test_range_mem_concurrent;
            ] );
      ])
