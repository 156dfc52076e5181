(** Benchmark observability: per-thread op counters split by kind and
    hit/miss, log-bucketed latency histograms mergeable across domains
    without locks, and the timestamped unreclaimed-object series behind
    Figures 10-12. *)

type op_kind = Search | Insert | Delete

(** One recorder per worker domain, written only by its owner while the run
    is live, merged by the coordinator after [Domain.join]. *)
type recorder

val create_recorder : unit -> recorder

val count : recorder -> op_kind -> hit:bool -> unit
(** Count an operation without a latency sample ([hit] is the op's boolean
    result: found / inserted / removed). *)

val observe : recorder -> op_kind -> hit:bool -> ns:int -> unit
(** Count an operation and record its latency.  Bucket [b] of the histogram
    holds latencies in [2^b, 2^(b+1)) nanoseconds. *)

val bucket_of_ns : int -> int
(** Exposed for tests. *)

type op_stats = {
  op : op_kind;
  hits : int;
  misses : int;
  count : int; (** hits + misses *)
  sampled : int; (** latency observations (0 when timing was disabled) *)
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : float; (** upper bound of the highest non-empty bucket *)
  hist : (float * int) list;
      (** (bucket lower bound in ns, count) for non-empty buckets *)
}

val merge : recorder array -> op_stats list
(** Element-wise merge of all recorders; one entry per {!op_kind}, in
    declaration order.  Percentiles are log-bucket estimates (geometric
    bucket midpoints), exact to within a factor of 2. *)

val total_ops : op_stats list -> int

(** One sample of the retired-but-unreclaimed gauge, [t] seconds after the
    workers were released — the time axis Figures 10-12 plot. *)
type mem_sample = { t : float; unreclaimed : int }

(** One supervised crash recovery: at [rv_t] seconds after release, worker
    [rv_tid] was found dead ([rv_reason]: ["crash"] for a {!Chaos.Crashed}
    notification, ["heartbeat-timeout"] for the watchdog path) and its
    handle was deactivated, adopted and swept.  [rv_action] says what
    happened next: ["respawn"] (a replacement worker was started),
    ["abandon"] (restart budget exhausted) or ["recover-at-stop"] (the run
    was already over, recovery only drained the orphan). *)
type recovery_event = {
  rv_t : float;
  rv_tid : int;
  rv_reason : string;
  rv_action : string;
  rv_restarts : int; (** recoveries of this tid so far, this one included *)
}

val op_stats_json : op_stats -> Json.t
val mem_sample_json : mem_sample -> Json.t
val recovery_event_json : recovery_event -> Json.t
