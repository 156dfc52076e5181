(* Lock-free hash set (array of SCOT Harris lists): semantics, bucket
   distribution and concurrent behaviour under a shared SMR instance. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module M = Scot.Hashmap.Make (Smr.Hp)
module ISet = Set.Make (Int)

let mk ?(threads = 1) ?(buckets = 16) () =
  let smr = Smr.Hp.create ~threads ~slots:Scot.Hashmap.slots_needed () in
  let t = M.create ~buckets ~smr ~threads () in
  (t, Array.init threads (fun tid -> M.handle t ~tid))

let test_semantics () =
  let t, hs = mk () in
  let h = hs.(0) in
  check "insert" true (M.insert h 5);
  check "dup insert" false (M.insert h 5);
  check "search" true (M.search h 5);
  check "absent" false (M.search h 6);
  check "delete" true (M.delete h 5);
  check "re-delete" false (M.delete h 5);
  check_int "empty" 0 (M.size t);
  M.check_invariants t

let test_spread_and_elements () =
  let t, hs = mk ~buckets:8 () in
  let h = hs.(0) in
  let n = 1_000 in
  for k = 0 to n - 1 do
    assert (M.insert h k)
  done;
  check_int "all inserted" n (M.size t);
  Alcotest.(check (list int)) "elements sorted" (List.init n Fun.id)
    (M.elements t);
  M.check_invariants t

let test_negative_and_spread_keys () =
  let t, hs = mk ~buckets:4 () in
  let h = hs.(0) in
  List.iter
    (fun k -> check (Printf.sprintf "insert %d" k) true (M.insert h k))
    [ -1_000_000; -1; 0; 1; 999_983; 123_456_789 ];
  check_int "six keys" 6 (M.size t);
  check "negatives found" true (M.search h (-1_000_000));
  M.check_invariants t

let test_model_based =
  QCheck.Test.make ~count:120 ~name:"hashmap agrees with Set"
    QCheck.(list (pair (int_bound 2) (int_bound 63)))
    (fun ops ->
      let t, hs = mk ~buckets:4 () in
      let h = hs.(0) in
      let model = ref ISet.empty in
      let ok =
        List.for_all
          (fun (c, k) ->
            match c with
            | 0 ->
                let e = not (ISet.mem k !model) in
                model := ISet.add k !model;
                M.insert h k = e
            | 1 ->
                let e = ISet.mem k !model in
                model := ISet.remove k !model;
                M.delete h k = e
            | _ -> M.search h k = ISet.mem k !model)
          ops
      in
      ok && M.size t = ISet.cardinal !model)

let test_concurrent_partition () =
  let threads = 4 in
  let t, hs = mk ~threads ~buckets:8 () in
  let range = 128 in
  let expected = Array.make range false in
  let worker tid () =
    let rng = Harness.Workload.Rng.create ~seed:(tid + 77) in
    let mine =
      Array.of_list
        (List.filter (fun k -> k mod threads = tid) (List.init range Fun.id))
    in
    for _ = 1 to 15_000 do
      let k = mine.(Harness.Workload.Rng.int rng (Array.length mine)) in
      if Harness.Workload.Rng.int rng 2 = 0 then begin
        ignore (M.insert hs.(tid) k);
        expected.(k) <- true
      end
      else begin
        ignore (M.delete hs.(tid) k);
        expected.(k) <- false
      end
    done;
    M.quiesce hs.(tid)
  in
  let doms = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join doms;
  M.check_invariants t;
  for k = 0 to range - 1 do
    check (Printf.sprintf "key %d" k) expected.(k) (M.search hs.(0) k)
  done

let test_bucket_validation () =
  match mk ~buckets:0 () with
  | _ -> Alcotest.fail "zero buckets accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "hashmap"
    [
      ( "hashmap",
        [
          Alcotest.test_case "semantics" `Quick test_semantics;
          Alcotest.test_case "spread and elements" `Quick
            test_spread_and_elements;
          Alcotest.test_case "negative and large keys" `Quick
            test_negative_and_spread_keys;
          QCheck_alcotest.to_alcotest test_model_based;
          Alcotest.test_case "concurrent partition" `Quick
            test_concurrent_partition;
          Alcotest.test_case "bucket validation" `Quick test_bucket_validation;
        ] );
      (* Recovery re-registers the map's one SMR handle per tid and must
         rebuild every bucket handle on it, under every scheme. *)
      ( "recover",
        List.map
          (fun ((module S : Smr.Smr_intf.S) as s) ->
            Alcotest.test_case
              (Printf.sprintf "recover (%s)" S.name)
              `Quick
              (Test_support.Ds_tests.recover_semantics
                 (Harness.Instance.find_builder_exn "HashMap")
                 s))
          Smr.Registry.all );
    ]
