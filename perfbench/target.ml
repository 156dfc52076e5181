(* The three benchmark workloads: what each builds, how it is prefilled,
   and the request stream its clients draw.

   A target is the built system under test, type-erased so the load
   generator in [bench.ml] drives a structure instance and the store the
   same way.  Keys and ops come only from the workload seed. *)

module W = Harness.Workload

(* One client's request stream.  [draw] stages the next request's inputs
   (untimed) and returns its kind ({!Trace.k_read}, [k_insert],
   [k_delete]); [exec] runs the staged request and returns [true] when an
   insert or delete took effect. *)
type client = { draw : unit -> int; exec : unit -> bool }

type t = {
  client : tid:int -> seed:int -> client;
  struct_ops : int array;
      (* structure operations (keys answered) per request, by kind *)
  prefilled : int;
  size : unit -> int;
  unreclaimed : unit -> int;
  check_invariants : unit -> unit;
  teardown : unit -> unit;
  robust : bool;
  scheme_stats : unit -> (string * int) list;  (* summed over shards *)
  restarts : unit -> int;
  shard_ops : unit -> int array;  (* requests completed per shard *)
  members : unit -> int;  (* keys of the range a lookup finds, run as tid 0 *)
}

type spec = {
  name : string;
  scheme : string;
  system : string;  (* what is measured, for the report header *)
  setups : int;
      (* set-ups per run, each measured for an equal share of the run;
         setup_s is the median of their build times *)
  gauge_requests : int;
      (* unreclaimed_avg covers this many requests from the start of each
         set-up: at most a third of what one runs on the host the
         benchmark was defined on, so a slower host still reaches it *)
  build : Smr.Registry.scheme -> seed:int -> t;  (* create and prefill *)
}

let kind_of_op = function
  | W.Search -> Trace.k_read
  | W.Insert -> Trace.k_insert
  | W.Delete -> Trace.k_delete

let worker_rng ~seed ~tid = W.Rng.create ~seed:((seed * 7919) + tid + 1)

(* One client, on the main domain.  With two client domains (tids 0 and
   2 of four, config for two threads) on the two-vCPU host the benchmark
   was defined on, both domains' speed depended on how the host scheduled
   them against each other: the two-domain retire loop of the calibration
   varies by more than 2x between repeats, and ten runs of the store spread up
   to 0.29 in throughput.  One client leaves the second vCPU to the
   runtime and the operating system.  The scheme config is the one for
   [clients] threads. *)
let clients = 1
let config = Smr.Smr_intf.default_config ~threads:clients

(* {2 Structure workloads: one public call is one structure op} *)

let structure ~structure ~range ~mix ~skew scheme ~seed =
  let b = Harness.Instance.find_builder_exn structure in
  let i = b.Harness.Instance.build scheme ~threads:clients ~config () in
  let prefilled = ref 0 in
  Array.iter
    (fun k -> if i.insert ~tid:0 k then incr prefilled)
    (W.prefill_keys ~range ~seed);
  let client ~tid ~seed =
    let rng = worker_rng ~seed ~tid in
    let sampler = W.sampler skew ~range in
    let key = ref 0 and kind = ref 0 in
    {
      draw =
        (fun () ->
          kind := kind_of_op (W.op_for rng mix);
          key := W.draw sampler rng;
          !kind);
      exec =
        (fun () ->
          let k = !key in
          if !kind = Trace.k_read then begin
            ignore (i.search ~tid k);
            false
          end
          else if !kind = Trace.k_insert then i.insert ~tid k
          else i.delete ~tid k);
    }
  in
  {
    client;
    struct_ops = [| 1; 1; 1 |];
    prefilled = !prefilled;
    size = i.size;
    unreclaimed = i.unreclaimed;
    check_invariants = i.check_invariants;
    teardown = i.teardown;
    robust = i.capabilities.Smr.Smr_intf.robust;
    scheme_stats = i.scheme_stats;
    restarts = i.restarts;
    shard_ops = (fun () -> [||]);
    members =
      (fun () ->
        let n = ref 0 in
        for k = 0 to range - 1 do
          if i.search ~tid:0 k then incr n
        done;
        !n);
  }

(* {2 Store workload: one public call is one store request} *)

let get_many_keys = 8

let store ~range ~skew scheme ~seed =
  let module St = Scotstore.Store in
  let s =
    St.create ~config ~buckets:256 ~backend:Scotstore.Shard.Hashmap ~scheme
      ~shards:4 ~threads:clients ()
  in
  let prefilled = ref 0 in
  let c0 = St.client s ~tid:0 in
  Array.iter
    (fun k -> if St.put c0 k then incr prefilled)
    (W.prefill_keys ~range ~seed);
  let mix = W.read_dominated in
  let client ~tid ~seed =
    let c = St.client s ~tid in
    let rng = worker_rng ~seed ~tid in
    let sampler = W.sampler skew ~range in
    let keys = Array.make get_many_keys 0 in
    let key = ref 0 and kind = ref 0 in
    {
      draw =
        (fun () ->
          kind := kind_of_op (W.op_for rng mix);
          if !kind = Trace.k_read then
            for j = 0 to get_many_keys - 1 do
              keys.(j) <- W.draw sampler rng
            done
          else key := W.draw sampler rng;
          !kind);
      exec =
        (fun () ->
          if !kind = Trace.k_read then begin
            ignore (St.get_many c keys);
            false
          end
          else if !kind = Trace.k_insert then St.put c !key
          else St.delete c !key);
    }
  in
  let sum_stats () =
    let tbl = Hashtbl.create 16 in
    for i = 0 to St.shards s - 1 do
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        ((St.shard s i).Scotstore.Shard.scheme_stats ())
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  in
  {
    client;
    struct_ops = [| get_many_keys; 1; 1 |];
    prefilled = !prefilled;
    size = (fun () -> St.size s);
    unreclaimed = (fun () -> St.unreclaimed s);
    check_invariants = (fun () -> St.check_invariants s);
    teardown = (fun () -> St.teardown s);
    robust = St.robust s;
    scheme_stats = sum_stats;
    (* Shards do not expose their structures' restart counters; the
       bracket-restart count from the trace stands in (see README). *)
    restarts = (fun () -> 0);
    shard_ops =
      (fun () -> Array.map fst (Scotstore.Stats.per_shard (St.stats s)));
    members =
      (fun () ->
        let c = St.client s ~tid:0 in
        let n = ref 0 in
        for k = 0 to range - 1 do
          if St.get c k then incr n
        done;
        !n);
  }

let all =
  [
    {
      name = "list-hp-mixed";
      scheme = "HP";
      system = "HList (SCOT Harris list), 512 keys, 50/25/25 uniform";
      setups = 20;
      gauge_requests = 1 lsl 15;
      build =
        structure ~structure:"HList" ~range:512 ~mix:W.read_write_50
          ~skew:W.Uniform;
    };
    {
      name = "tree-ibr-churn";
      scheme = "IBR";
      system = "NMTree, 2^18 keys, 0/50/50 uniform";
      setups = 5;
      gauge_requests = 1 lsl 17;
      build =
        structure ~structure:"NMTree" ~range:(1 lsl 18) ~mix:W.write_only
          ~skew:W.Uniform;
    };
    {
      name = "store-hln-multiget";
      scheme = "HLN";
      system =
        "scotstore HashMap, 4 shards x 256 buckets, 8192 keys zipf 0.99, \
         90% get_many(8) / 5% put / 5% delete";
      setups = 20;
      gauge_requests = 1 lsl 17;
      build = store ~range:8192 ~skew:(W.Zipf 0.99);
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
