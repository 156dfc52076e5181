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

(* Searches stay exact while the nodes around them are reclaimed and
   recycled: two domains insert and delete keys 0..49, and meanwhile keys
   100..119 (never touched) are always found and keys 50..99 (never
   inserted) never are.  The reader keeps going until the churn has
   recycled nodes. *)
let test_search_under_churn () =
  let threads = 3 in
  let t, hs = mk ~threads () in
  let h0 = hs.(0) in
  for k = 100 to 119 do
    ignore (L.insert h0 k)
  done;
  let stop = Atomic.make false in
  let churned = Atomic.make 0 in
  let churn tid =
    Domain.spawn (fun () ->
        let h = hs.(tid) in
        let i = ref 0 in
        while not (Atomic.get stop) do
          ignore (L.insert h (!i mod 50));
          ignore (L.delete h (!i mod 50));
          Atomic.incr churned;
          incr i
        done)
  in
  let d1 = churn 1 and d2 = churn 2 in
  let wrong = ref 0 and rounds = ref 0 in
  while !rounds < 200 || Atomic.get churned < 20_000 do
    for k = 50 to 119 do
      if L.search h0 k <> (k >= 100) then incr wrong
    done;
    incr rounds
  done;
  Atomic.set stop true;
  Domain.join d1;
  Domain.join d2;
  L.check_invariants t;
  check_int "wrong search answers" 0 !wrong;
  check "stable keys intact" true
    (List.filter (fun k -> k >= 50) (L.to_list t) = List.init 20 (( + ) 100));
  check "nodes were recycled" true (List.assoc "recycled" (L.pool_stats t) > 0)

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
            Alcotest.test_case "searches exact under churn" `Quick
              test_search_under_churn;
          ] );
      ])
