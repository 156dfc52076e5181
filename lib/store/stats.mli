(** Per-shard hit/miss and batch-occupancy counters for the store tier.

    Hot-path writes land on {!Memory.Padded} cells owned by one
    (shard, tid) pair, so recording is an uncontended atomic increment;
    cross-cell reads ({!queued_depth}, {!per_shard}) are meant for the
    coordinator's sample loop and the final report.  Occupancy histograms
    and expiry counts are owner-written and only merged after join. *)

type t

val create : shards:int -> threads:int -> batch_capacity:int -> t
(** Raises [Invalid_argument] on non-positive dimensions. *)

val record : t -> shard:int -> tid:int -> hit:bool -> unit
(** One completed request against [shard] by client [tid]. *)

val record_bulk : t -> shard:int -> tid:int -> ops:int -> hits:int -> unit
(** A whole dispatched group at once: equivalent to [ops] calls to
    {!record} of which [hits] were hits, in two fetch-and-adds. *)

val record_flush : t -> tid:int -> occupancy:int -> unit
(** One batch dispatch of [occupancy] requests (clamped to capacity). *)

val record_expired : t -> tid:int -> unit
(** One TTL eviction issued by client [tid]. *)

val record_queued : t -> shard:int -> tid:int -> unit
(** One write accepted into [tid]'s batch for [shard] (backlog gauge up). *)

val record_dispatched : t -> shard:int -> tid:int -> n:int -> unit
(** [n] backlogged writes dispatched (backlog gauge down). *)

val queued_depth : t -> shard:int -> int
(** Live batched-write backlog against a shard, summed over clients —
    the queue-occupancy input of the pressure ratio.  Coordinator-side. *)

val record_shed : t -> tid:int -> ttl:bool -> unit
(** One write rejected by admission control ([`Overload]); [ttl] selects
    the stage-1 (TTL write) counter over the stage-2 (any write) one. *)

val record_deadline_reject : t -> tid:int -> unit
(** One request refused because its deadline had already passed. *)

val record_retry : t -> tid:int -> unit
(** One backoff re-submission after [`Overload]. *)

val shed_ttl_total : t -> int
val shed_write_total : t -> int
val shed_total : t -> int
val deadline_reject_total : t -> int
val retry_total : t -> int
(** Totals of the four overload counters; owner-written cells, read
    after the owning workers have quiesced. *)

val per_shard : t -> (int * int) array
(** Per shard: (ops, hits).  Misses are [ops - hits]. *)

val total_ops : t -> int

val occupancy : t -> (int * int) list
(** Merged flush-size histogram as [(size, flushes)] pairs, ascending,
    zero-count sizes omitted.  Call after workers joined. *)

val expired_total : t -> int
