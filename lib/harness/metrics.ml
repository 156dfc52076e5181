(* Benchmark observability: per-thread op counters split by kind and
   hit/miss, log-bucketed latency histograms, and the timestamped
   unreclaimed-object series behind Figures 10-12.

   Concurrency model: one [recorder] per worker domain, written only by its
   owner while the run is live, then merged by the coordinator after
   [Domain.join] — mergeable across domains without any locks or atomics on
   the hot path.  Histograms are log-bucketed (bucket [b] holds latencies in
   [2^b, 2^(b+1)) nanoseconds), so merging is element-wise addition and
   percentile estimates are exact to within a factor of 2 regardless of how
   skewed the tail is. *)

type op_kind = Search | Insert | Delete

let op_kinds = [ Search; Insert; Delete ]
let n_kinds = 3
let kind_index = function Search -> 0 | Insert -> 1 | Delete -> 2
let op_kind_label = function
  | Search -> "search"
  | Insert -> "insert"
  | Delete -> "delete"

let buckets = 64

type recorder = {
  hits : int array; (* per kind: operation returned true *)
  misses : int array; (* per kind: operation returned false *)
  hist : int array; (* n_kinds x buckets, flattened, row per kind *)
}

let create_recorder () =
  {
    hits = Array.make n_kinds 0;
    misses = Array.make n_kinds 0;
    hist = Array.make (n_kinds * buckets) 0;
  }

(* Index of the highest set bit: latencies of [2^b, 2^(b+1)) ns land in
   bucket [b]; 0 and 1 ns land in bucket 0. *)
let bucket_of_ns ns =
  if ns <= 1 then 0
  else begin
    let b = ref 0 and v = ref ns in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    min !b (buckets - 1)
  end

let count r kind ~hit =
  let i = kind_index kind in
  if hit then r.hits.(i) <- r.hits.(i) + 1
  else r.misses.(i) <- r.misses.(i) + 1

let observe r kind ~hit ~ns =
  count r kind ~hit;
  let i = kind_index kind in
  let b = bucket_of_ns ns in
  r.hist.((i * buckets) + b) <- r.hist.((i * buckets) + b) + 1

(* --- aggregation --- *)

type op_stats = {
  op : op_kind;
  hits : int;
  misses : int;
  count : int; (* hits + misses *)
  sampled : int; (* latency observations (0 when timing was disabled) *)
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : float; (* upper bound of the highest non-empty bucket *)
  hist : (float * int) list; (* (bucket lower bound ns, count), non-empty *)
}

let bucket_lo b = if b = 0 then 0.0 else Float.of_int (1 lsl b)

(* Geometric midpoint of the bucket, the canonical log-histogram estimate. *)
let bucket_mid b = if b = 0 then 1.0 else 1.5 *. Float.of_int (1 lsl b)

let percentile counts total p =
  if total = 0 then 0.0
  else begin
    let target =
      let t = int_of_float (Float.ceil (p *. float_of_int total)) in
      max 1 (min total t)
    in
    let rec go b acc =
      if b >= buckets then bucket_mid (buckets - 1)
      else
        let acc = acc + counts.(b) in
        if acc >= target then bucket_mid b else go (b + 1) acc
    in
    go 0 0
  end

let merge recorders =
  List.map
    (fun kind ->
      let i = kind_index kind in
      let hits = ref 0 and misses = ref 0 in
      let counts = Array.make buckets 0 in
      Array.iter
        (fun (r : recorder) ->
          hits := !hits + r.hits.(i);
          misses := !misses + r.misses.(i);
          for b = 0 to buckets - 1 do
            counts.(b) <- counts.(b) + r.hist.((i * buckets) + b)
          done)
        recorders;
      let sampled = Array.fold_left ( + ) 0 counts in
      let max_ns =
        let top = ref (-1) in
        for b = 0 to buckets - 1 do
          if counts.(b) > 0 then top := b
        done;
        if !top < 0 then 0.0 else Float.of_int (1 lsl (!top + 1))
      in
      let hist = ref [] in
      for b = buckets - 1 downto 0 do
        if counts.(b) > 0 then hist := (bucket_lo b, counts.(b)) :: !hist
      done;
      {
        op = kind;
        hits = !hits;
        misses = !misses;
        count = !hits + !misses;
        sampled;
        p50_ns = percentile counts sampled 0.50;
        p90_ns = percentile counts sampled 0.90;
        p99_ns = percentile counts sampled 0.99;
        max_ns;
        hist = !hist;
      })
    op_kinds

let total_ops stats = List.fold_left (fun acc s -> acc + s.count) 0 stats

(* --- memory time series (Figures 10-12 keep the time axis) --- *)

type mem_sample = { t : float; (* seconds since release *) unreclaimed : int }

(* --- crash-recovery events (supervised runs) --- *)

type recovery_event = {
  rv_t : float; (* seconds since release *)
  rv_tid : int;
  rv_reason : string; (* "crash" | "heartbeat-timeout" *)
  rv_action : string; (* "respawn" | "abandon" | "recover-at-stop" *)
  rv_restarts : int; (* recoveries of this tid so far, this one included *)
}

(* --- JSON projections --- *)

let op_stats_json (s : op_stats) =
  Json.Obj
    [
      ("op", Json.String (op_kind_label s.op));
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("count", Json.Int s.count);
      ("sampled", Json.Int s.sampled);
      ("p50_ns", Json.Float s.p50_ns);
      ("p90_ns", Json.Float s.p90_ns);
      ("p99_ns", Json.Float s.p99_ns);
      ("max_ns", Json.Float s.max_ns);
      ( "hist",
        Json.List
          (List.map
             (fun (lo, n) -> Json.List [ Json.Float lo; Json.Int n ])
             s.hist) );
    ]

let mem_sample_json (s : mem_sample) =
  Json.Obj [ ("t", Json.Float s.t); ("unreclaimed", Json.Int s.unreclaimed) ]

let recovery_event_json (e : recovery_event) =
  Json.Obj
    [
      ("t", Json.Float e.rv_t);
      ("tid", Json.Int e.rv_tid);
      ("reason", Json.String e.rv_reason);
      ("action", Json.String e.rv_action);
      ("restarts", Json.Int e.rv_restarts);
    ]
