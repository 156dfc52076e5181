(* scotstore tests: routing, batched-vs-immediate equivalence (including
   the same-key coalescing in [apply_batch]), get_many, TTL eviction
   under an injected clock, stats accounting, and a supervised serve
   soak with a crashed worker. *)

module B = Scot.Batch_op
module Store = Scotstore.Store
module Router = Scotstore.Router
module Shard = Scotstore.Shard
module Stats = Scotstore.Stats
module Serve = Scotstore.Serve

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let hln = Smr.Registry.find_exn "HLN"
let ebr = Smr.Registry.find_exn "EBR"
let hp = Smr.Registry.find_exn "HP"
let ibr = Smr.Registry.find_exn "IBR"

let mk_store ?(backend = Shard.Hashmap) ?(scheme = hln) ?(shards = 4)
    ?(threads = 1) ?batch_capacity () =
  Store.create ?batch_capacity ~buckets:8 ~backend ~scheme ~shards ~threads ()

(* A disarmed store admits every deferred write that carries no deadline. *)
let queued = function
  | `Queued -> ()
  | `Overload | `Deadline_exceeded -> Alcotest.fail "deferred write refused"

(* --- router --- *)

let test_router_deterministic_and_in_range () =
  let r = Router.create ~shards:4 in
  for key = 0 to 9999 do
    let s = Router.shard_of r key in
    check "in range" true (s >= 0 && s < 4);
    check_int "deterministic" s (Router.shard_of r key)
  done

let test_router_balance () =
  let shards = 4 in
  let r = Router.create ~shards in
  let counts = Array.make shards 0 in
  let n = 10_000 in
  for key = 0 to n - 1 do
    let s = Router.shard_of r key in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.15 || frac > 0.35 then
        Alcotest.failf "shard %d holds %.1f%% of sequential keys" s
          (100.0 *. frac))
    counts

let test_router_rejects_bad_shards () =
  check "shards=0 rejected" true
    (try
       ignore (Router.create ~shards:0);
       false
     with Invalid_argument _ -> true)

(* --- batched = immediate semantics --- *)

(* Replay one op sequence through the immediate path and through the
   deferred path (auto-flush at a small capacity, explicit flush at the
   end) and compare per-key result streams.  Keys on one shard keep
   their issue order in a batch, so for every key the (kind, hit)
   subsequence must match the immediate run exactly — this also pins the
   same-key coalescing in [apply_batch] to sequential semantics, since a
   tiny key range packs many repeats into every group. *)
let replay ops ~batched =
  let store = mk_store ~batch_capacity:8 () in
  let log = ref [] in
  let on_result ~kind ~key ~hit = log := (key, kind, hit) :: !log in
  let c = Store.client ~on_result store ~tid:0 in
  List.iter
    (fun (kind, key) ->
      if batched then
        if kind = B.get then Store.enqueue_get c key
        else if kind = B.put then queued (Store.enqueue_put c key)
        else queued (Store.enqueue_delete c key)
      else if kind = B.get then ignore (Store.get c key)
      else if kind = B.put then ignore (Store.put c key)
      else ignore (Store.delete c key))
    ops;
  if batched then Store.flush c;
  let members = List.init 16 (fun k -> Store.get c k) in
  let final = (Store.size store, members) in
  Store.teardown store;
  (List.rev !log, final)

let per_key_streams log =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (key, kind, hit) ->
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key ((kind, hit) :: prev))
    log;
  tbl

let ops_gen =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (k, key) -> Printf.sprintf "(%d,%d)" k key) l))
    QCheck.Gen.(
      list_size (int_range 0 200)
        (pair (oneofl [ B.get; B.put; B.del ]) (int_bound 7)))

let test_batched_equals_immediate =
  QCheck.Test.make ~count:60 ~name:"batched = immediate (per-key streams)"
    ops_gen (fun ops ->
      let log_i, final_i = replay ops ~batched:false in
      let log_b, final_b = replay ops ~batched:true in
      let si = per_key_streams log_i and sb = per_key_streams log_b in
      for key = 0 to 7 do
        let a = try Hashtbl.find si key with Not_found -> [] in
        let b = try Hashtbl.find sb key with Not_found -> [] in
        if a <> b then
          QCheck.Test.fail_reportf "key %d: streams differ (%d vs %d results)"
            key (List.length a) (List.length b)
      done;
      final_i = final_b)

(* --- get_many --- *)

let test_get_many () =
  let store = mk_store () in
  let c = Store.client store ~tid:0 in
  ignore (Store.put c 1);
  (* Still pending: get_many must flush it first. *)
  queued (Store.enqueue_put c 3);
  let r = Store.get_many c [| 0; 1; 2; 3; 1 |] in
  Alcotest.(check (array bool)) "membership in input order"
    [| false; true; false; true; true |]
    r;
  check_int "nothing pending afterwards" 0 (Store.pending c);
  Store.teardown store

(* --- TTL eviction through the retire path --- *)

let test_ttl_eviction () =
  let t = ref 0.0 in
  let store = mk_store () in
  let c = Store.client ~now:(fun () -> !t) store ~tid:0 in
  ignore (Store.put ~ttl_s:1.0 c 5);
  check "present before expiry" true (Store.get c 5);
  t := 0.5;
  check_int "sweep before deadline evicts nothing" 0 (Store.sweep_expired c);
  t := 2.0;
  check_int "sweep after deadline evicts it" 1 (Store.sweep_expired c);
  check "gone after expiry" false (Store.get c 5);
  check_int "stats counted the eviction" 1
    (Stats.expired_total (Store.stats store));
  Store.teardown store

let test_ttl_reput_moves_deadline () =
  let t = ref 0.0 in
  let store = mk_store () in
  let c = Store.client ~now:(fun () -> !t) store ~tid:0 in
  ignore (Store.put ~ttl_s:1.0 c 5);
  t := 0.5;
  ignore (Store.put ~ttl_s:5.0 c 5) (* re-put extends the deadline *);
  t := 2.0;
  check_int "stale queue entry skipped" 0 (Store.sweep_expired c);
  check "still present" true (Store.get c 5);
  t := 6.0;
  check_int "evicted at the new deadline" 1 (Store.sweep_expired c);
  check "gone" false (Store.get c 5);
  Store.teardown store

(* Regression: a deferred put's deadline must run from DISPATCH.  The
   old enqueue-time book-keeping let a sweep that fired after the
   deadline but before the flush delete the key and consume its book
   entry — the flush then re-inserted the key with no deadline at all,
   so it never expired. *)
let test_ttl_deferred_put_expires_from_dispatch () =
  let t = ref 0.0 in
  let store = mk_store () in
  let c = Store.client ~now:(fun () -> !t) store ~tid:0 in
  queued (Store.enqueue_put ~ttl_s:1.0 c 5);
  t := 2.0;
  check_int "no eviction while the put is queued" 0 (Store.sweep_expired c);
  Store.flush c (* dispatch at t=2: deadline becomes 3.0 *);
  check "present after flush" true (Store.get c 5);
  t := 2.5;
  check_int "not yet expired" 0 (Store.sweep_expired c);
  t := 4.0;
  check_int "expires from the dispatch-time deadline" 1 (Store.sweep_expired c);
  check "gone — no permanent leak" false (Store.get c 5);
  Store.teardown store

let test_ttl_pending_reput_shields_key_from_sweep () =
  let t = ref 0.0 in
  let store = mk_store () in
  let c = Store.client ~now:(fun () -> !t) store ~tid:0 in
  ignore (Store.put ~ttl_s:1.0 c 5);
  t := 0.5;
  queued (Store.enqueue_put ~ttl_s:5.0 c 5) (* queued re-put clears the book *);
  t := 2.0;
  check_int "old deadline cannot evict a key with a pending re-put" 0
    (Store.sweep_expired c);
  check "still present" true (Store.get c 5);
  Store.flush c (* dispatch at t=2: deadline becomes 7.0 *);
  t := 6.0;
  check_int "not yet expired" 0 (Store.sweep_expired c);
  t := 8.0;
  check_int "evicted at the re-put deadline" 1 (Store.sweep_expired c);
  check "gone" false (Store.get c 5);
  Store.teardown store

let test_ttl_delete_clears_book () =
  let t = ref 0.0 in
  let store = mk_store () in
  let c = Store.client ~now:(fun () -> !t) store ~tid:0 in
  ignore (Store.put ~ttl_s:1.0 c 5);
  ignore (Store.delete c 5);
  ignore (Store.put c 5) (* re-put WITHOUT ttl: must not expire *);
  t := 2.0;
  check_int "no eviction" 0 (Store.sweep_expired c);
  check "still present" true (Store.get c 5);
  Store.teardown store

(* --- stats --- *)

let test_stats_occupancy_and_totals () =
  let store = mk_store ~batch_capacity:4 () in
  let c = Store.client store ~tid:0 in
  (* 10 gets on one key = one shard: groups of 4, 4, 2. *)
  for _ = 1 to 10 do
    Store.enqueue_get c 42
  done;
  Store.flush c;
  check_int "all requests accounted" 10 (Stats.total_ops (Store.stats store));
  let occ = Stats.occupancy (Store.stats store) in
  check "two full groups of 4" true (List.mem_assoc 4 occ && List.assoc 4 occ = 2);
  check "one remainder group of 2" true
    (List.mem_assoc 2 occ && List.assoc 2 occ = 1);
  Store.teardown store

let test_store_rejects_bad_dims () =
  List.iter
    (fun f -> check "rejected" true (try ignore (f ()); false with Invalid_argument _ -> true))
    [
      (fun () -> mk_store ~shards:0 ());
      (fun () -> mk_store ~threads:0 ());
      (fun () -> mk_store ~batch_capacity:0 ());
    ]

(* --- gauge bound: one SMR registration per client per shard --- *)

(* A robust scheme bounds unreclaimed memory by O(threshold x threads),
   and the hash map's bucket count must not enter that bound: each shard
   holds one registration (one limbo) per client, whatever [buckets] is.
   The gauge is checked after every request against the no-stall bound,
   which has no bucket term. *)
let test_gauge_bound_ignores_buckets () =
  let module W = Harness.Workload in
  let shards = 4 and threads = 1 and range = 1024 in
  List.iter
    (fun ((module S : Smr.Smr_intf.S) as scheme) ->
      List.iter
        (fun buckets ->
          let what = Printf.sprintf "%s buckets=%d" S.name buckets in
          let store =
            Store.create ~buckets ~backend:Shard.Hashmap ~scheme ~shards
              ~threads ()
          in
          let bound = Option.get (Store.mem_bound store ~range ~stalled:0 ()) in
          let c = Store.client store ~tid:0 in
          let rng = W.Rng.create ~seed:0x5EED in
          let sampler = W.sampler (W.Zipf 0.99) ~range in
          let keys = Array.make 8 0 in
          let peak = ref 0 in
          for _ = 1 to 10_000 do
            (match W.Rng.int rng 5 with
            | 0 | 1 -> ignore (Store.put c (W.draw sampler rng))
            | 2 | 3 -> ignore (Store.delete c (W.draw sampler rng))
            | _ ->
                for i = 0 to 7 do
                  keys.(i) <- W.draw sampler rng
                done;
                ignore (Store.get_many c keys));
            peak := max !peak (Store.unreclaimed store)
          done;
          if !peak > bound then
            Alcotest.failf "%s: gauge peaked at %d > no-stall bound %d" what
              !peak bound;
          for s = 0 to shards - 1 do
            check_int
              (Printf.sprintf "%s: shard %d holds one handle per client" what s)
              threads
              (List.assoc "active_handles"
                 ((Store.shard store s).Shard.scheme_stats ()))
          done;
          Store.teardown store)
        [ 1; 16; 256 ])
    [ hp; ibr; hln ]

(* --- serve soak: supervisor + chaos live, 1 crashed worker --- *)

let test_serve_soak_recovers_crash () =
  let cfg =
    {
      (Serve.default_cfg ()) with
      Serve.sv_scheme = ebr;
      sv_shards = 2;
      sv_threads = 2;
      sv_range = 512;
      sv_duration = 0.3;
      sv_crash = 1;
      sv_ttl_pct = 20;
    }
  in
  let r = Serve.run cfg Serve.Batched in
  check "verdict ok" true r.Serve.r_ok;
  Alcotest.(check string) "verdict string" "ok" r.Serve.r_verdict;
  check "the armed crash was recovered" true
    (List.length r.Serve.r_recoveries >= 1);
  check "ops flowed" true (r.Serve.r_ops > 0);
  check "per-shard rows cover both shards" true
    (List.length r.Serve.r_per_shard = 2)

let () =
  Alcotest.run "store"
    [
      ( "router",
        [
          Alcotest.test_case "deterministic, in range" `Quick
            test_router_deterministic_and_in_range;
          Alcotest.test_case "balance" `Quick test_router_balance;
          Alcotest.test_case "rejects shards<=0" `Quick
            test_router_rejects_bad_shards;
        ] );
      ( "semantics",
        [
          QCheck_alcotest.to_alcotest test_batched_equals_immediate;
          Alcotest.test_case "get_many" `Quick test_get_many;
        ] );
      ( "ttl",
        [
          Alcotest.test_case "eviction" `Quick test_ttl_eviction;
          Alcotest.test_case "re-put moves deadline" `Quick
            test_ttl_reput_moves_deadline;
          Alcotest.test_case "deferred put expires from dispatch" `Quick
            test_ttl_deferred_put_expires_from_dispatch;
          Alcotest.test_case "pending re-put shields key from sweep" `Quick
            test_ttl_pending_reput_shields_key_from_sweep;
          Alcotest.test_case "delete clears book" `Quick
            test_ttl_delete_clears_book;
        ] );
      ( "stats",
        [
          Alcotest.test_case "occupancy and totals" `Quick
            test_stats_occupancy_and_totals;
          Alcotest.test_case "rejects bad dims" `Quick
            test_store_rejects_bad_dims;
          Alcotest.test_case "gauge bound ignores bucket count" `Quick
            test_gauge_bound_ignores_buckets;
        ] );
      ( "serve",
        [
          Alcotest.test_case "soak recovers a crashed worker" `Quick
            test_serve_soak_recovers_crash;
        ] );
    ]
