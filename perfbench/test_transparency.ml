(* The traced scheme wrapper must be transparent: on a fixed
   single-domain op sequence, a structure built over [Traced.wrap S]
   returns exactly what one built over [S] returns, ends at the same size,
   and the counts it records match their closed forms:

   - one bracket per structure op (one per distinct shard for a store
     [get_many]), with exactly one body run each (nothing restarts on one
     domain);
   - retires = successful deletes x nodes unlinked per delete (1 for the
     Harris list, leaf + parent for the Natarajan-Mittal tree). *)

open Perfbench
module W = Harness.Workload

let ops = 20_000

type outcome = { ops_done : (W.op * bool) list; size : int }

(* Prefill half of [range], reset tid 0's recorder, then run [ops]
   50/25/25 ops from a fixed seed on tid 0. *)
let run_structure ~structure ~range scheme =
  let b = Harness.Instance.find_builder_exn structure in
  let i = b.Harness.Instance.build scheme ~threads:2 () in
  Array.iter (fun k -> ignore (i.insert ~tid:0 k)) (W.prefill_keys ~range ~seed:7);
  Trace.reset (Trace.recorder 0);
  let rng = W.Rng.create ~seed:11 in
  let ops_done =
    List.init ops (fun _ ->
        let op = W.op_for rng W.read_write_50 in
        let k = W.Rng.int rng range in
        ( op,
          match op with
          | W.Search -> i.search ~tid:0 k
          | W.Insert -> i.insert ~tid:0 k
          | W.Delete -> i.delete ~tid:0 k ))
  in
  i.check_invariants ();
  { ops_done; size = i.size () }

let successful_deletes o =
  List.length (List.filter (fun (op, r) -> op = W.Delete && r) o.ops_done)

let count i = Trace.get (Trace.recorder 0) i

let structure_case ~structure ~range ~nodes_per_delete scheme_name =
  let name = Printf.sprintf "%s/%s" structure scheme_name in
  Alcotest.test_case name `Quick (fun () ->
      let scheme = Smr.Registry.find_exn scheme_name in
      let raw = run_structure ~structure ~range scheme in
      let traced = run_structure ~structure ~range (Traced.wrap scheme) in
      Alcotest.(check (list bool))
        "same results" (List.map snd raw.ops_done) (List.map snd traced.ops_done);
      Alcotest.(check int) "same final size" raw.size traced.size;
      Alcotest.(check int) "one bracket per op" ops (count Trace.c_brackets);
      Alcotest.(check int) "one body run per bracket" ops (count Trace.c_body_runs);
      Alcotest.(check int) "retires = successful deletes x nodes unlinked"
        (nodes_per_delete * successful_deletes traced)
        (count Trace.c_retires))

(* Store: 90/5/5 get_many(8)/put/delete on one client. *)
let run_store scheme =
  let module St = Scotstore.Store in
  let s =
    St.create ~buckets:16 ~backend:Scotstore.Shard.Hashmap ~scheme ~shards:4
      ~threads:2 ()
  in
  let c = St.client s ~tid:0 in
  let range = 1024 in
  Array.iter (fun k -> ignore (St.put c k)) (W.prefill_keys ~range ~seed:7);
  Trace.reset (Trace.recorder 0);
  let rng = W.Rng.create ~seed:13 in
  let expected_brackets = ref 0 in
  let results =
    List.init 5_000 (fun _ ->
        match W.op_for rng W.read_dominated with
        | W.Search ->
            let keys = Array.init 8 (fun _ -> W.Rng.int rng range) in
            let shards = List.sort_uniq compare (List.map (St.shard_of s) (Array.to_list keys)) in
            expected_brackets := !expected_brackets + List.length shards;
            Array.to_list (St.get_many c keys)
        | W.Insert ->
            incr expected_brackets;
            [ St.put c (W.Rng.int rng range) ]
        | W.Delete ->
            incr expected_brackets;
            [ St.delete c (W.Rng.int rng range) ])
  in
  St.check_invariants s;
  (List.concat results, St.size s, !expected_brackets)

let store_case scheme_name =
  Alcotest.test_case ("store/" ^ scheme_name) `Quick (fun () ->
      let scheme = Smr.Registry.find_exn scheme_name in
      let raw, raw_size, _ = run_store scheme in
      let traced, size, expected = run_store (Traced.wrap scheme) in
      Alcotest.(check (list bool)) "same results" raw traced;
      Alcotest.(check int) "same final size" raw_size size;
      Alcotest.(check int) "one bracket per shard group" expected
        (count Trace.c_brackets))

let () =
  Alcotest.run "perfbench"
    [
      ( "transparency",
        List.map
          (structure_case ~structure:"HList" ~range:512 ~nodes_per_delete:1)
          [ "HP"; "IBR"; "HLN"; "EBR" ]
        @ [ structure_case ~structure:"NMTree" ~range:4096 ~nodes_per_delete:2 "IBR" ]
        @ List.map store_case [ "HLN"; "HP" ] );
    ]
