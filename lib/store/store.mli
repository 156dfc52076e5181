(** scotstore front end: domain-sharded KV tier with per-shard batch
    dispatch.

    A store is an array of {!Shard.t} (each with its own SMR instance)
    behind a {!Router}.  Each client thread creates one {!client} and
    uses either:

    - the {e immediate} path ({!get} / {!put} / {!delete}): one SMR
      bracket per operation, never gated — the baseline;
    - the {e deferred} path ({!enqueue_get} / {!enqueue_put} /
      {!enqueue_delete} / {!get_many} / {!flush}): requests are grouped
      by destination shard and each group executes under a {e single}
      [start_op]/[end_op] bracket, amortising bracket entry (reservation
      publish, fences, Hyaline batch/era work) across the group.  Its
      writes are the store's one admission path (deadlines and overload
      shedding, see {!enqueue_put}).

    Deferred requests complete at flush time (capacity reached, explicit
    {!flush}, or {!get_many}); their results are delivered through the
    client's [on_result] callback and the store {!Stats}.  Clients are
    single-owner and NOT thread-safe; one per thread, [tid]s unique.

    TTL ([?ttl_s] on puts) is best-effort and client-local: the writing
    client evicts expired keys during its sweeps (on {!flush} and
    periodically on immediate ops), through the ordinary delete path, so
    expired entries are reclaimed via [retire] like any other removal.
    A {e deferred} put's TTL clock starts at dispatch (flush), not at
    enqueue — until then the key carries no deadline, so a sweep can
    neither orphan the queued put (insert-after-expiry with no book
    entry) nor evict a key that has a re-put pending.  A crashed
    client's pending deferred requests and TTL book are dropped when it
    is respawned (documented trade-off: deferred writes are not durable
    until flushed). *)

type t

type client

val create :
  ?config:Smr.Smr_intf.config ->
  ?buckets:int ->
  ?batch_capacity:int ->
  backend:Shard.backend ->
  scheme:Smr.Registry.scheme ->
  shards:int ->
  threads:int ->
  unit ->
  t
(** [batch_capacity] (default 64) is the per-shard group size at which a
    client's deferred requests auto-flush. *)

val client :
  ?now:(unit -> float) ->
  ?on_result:(kind:int -> key:int -> hit:bool -> unit) ->
  t ->
  tid:int ->
  client
(** [now] (default {!Harness.Clock.now}) is the TTL and deadline clock
    — injectable for tests.  [on_result] fires once per {e completed}
    request, on both paths (immediately for {!get}/{!put}/{!delete}, at
    flush for deferred requests); [kind] is a {!Scot.Batch_op} op code. *)

(** {2 Immediate path — one bracket per op} *)

val get : client -> int -> bool
val put : ?ttl_s:float -> client -> int -> bool
val delete : client -> int -> bool

(** {2 Deferred path — one bracket per shard group} *)

val enqueue_get : client -> int -> unit

val enqueue_put :
  ?ttl_s:float ->
  ?deadline:float ->
  client ->
  int ->
  [ `Queued | `Overload | `Deadline_exceeded ]
(** Admit a write into its shard's group.  Two checks run first:

    - [deadline] is absolute, on the client's clock: once it has passed
      the write is refused with [`Deadline_exceeded] (counted in
      {!Stats});
    - on an armed store of a robust scheme (see {!arm_pressure}) the
      destination shard's {!Pressure.level} sheds writes with
      [`Overload]: [Degraded_ttl] sheds TTL-carrying puts,
      [Degraded_all] every write.  Reads are {e never} shed; keeping
      reads live is what the write shedding buys.  [`Overload] is
      retryable — pair with {!Backoff.run}.

    A shed is not a pure refusal: the client first flushes whatever it
    had already queued against the refusing shard (that dispatch runs a
    synchronous sweep at [Pressured] or worse) or sweeps its handle's
    limbo directly.  Handles are single-owner, so only the client itself
    can reclaim what it retired — without this housekeeping a store
    where every shard reaches [Degraded_all] would deadlock: all writes
    shed, so no dispatches, so no retire-path reclamation, so the gauge
    never falls back below the exit threshold. *)

val enqueue_delete :
  ?deadline:float ->
  client ->
  int ->
  [ `Queued | `Overload | `Deadline_exceeded ]
(** As {!enqueue_put}; a delete sheds only at [Degraded_all]. *)

val flush : client -> unit
(** Dispatch every non-empty shard group (one bracket each), then run a
    TTL sweep. *)

val pending : client -> int

val get_many : client -> int array -> bool array
(** Membership for each key, in input order, via the batched-read path:
    each get rides BEHIND its shard's queued deferred writes in the same
    group, so every non-empty shard dispatches writes-then-reads under
    ONE bracket (no separate pre-flush).  Within a shard the group
    linearizes in program order — the structures' [apply_batch]
    guarantee — so each get observes this client's earlier queued
    writes, and a contiguous same-key run coalesces across the
    write/read boundary (a get directly following its own queued put is
    answered from the coalescing memo without a traversal; see
    {!Scot.Hashmap.apply_batch}).  Ends with a TTL sweep like
    {!flush}. *)

val sweep_expired : ?now:float -> client -> int
(** Evict every expired key this client owns a deadline for; returns the
    eviction count.  Runs automatically on {!flush} and every 64
    operations (immediate or deferred); exposed for tests and idle
    housekeeping. *)

(** {2 Store-wide observers and maintenance} *)

val shards : t -> int

val shard_of : t -> int -> int
(** Destination shard for a key (the router's choice). *)

val stats : t -> Stats.t
val shard : t -> int -> Shard.t
val size : t -> int
val unreclaimed : t -> int

val quiesce : t -> tid:int -> unit
(** Force a reclamation pass for [tid] on every shard. *)

val teardown : t -> unit
val check_invariants : t -> unit

val recover : t -> tid:int -> unit
(** Crash recovery for [tid] on every shard (see {!Shard.t.recover}).
    The dead client's pending deferred requests are lost by design. *)

val recoverable : t -> bool
val robust : t -> bool

val mem_bound : t -> range:int -> ?adopted:int -> stalled:int -> unit -> int option
(** Sum of per-shard {!Shard.mem_bound} ceilings; [None] when the scheme
    is not robust. *)

val ref_mem_bound : t -> range:int -> ?adopted:int -> stalled:int -> unit -> int
(** Sum of per-shard {!Shard.ref_mem_bound} reference ceilings — always
    defined (IBR's bound stands in for non-robust shards). *)

(** {2 Pressure: gauge-driven graceful degradation}

    Disarmed by default.  {!arm_pressure} installs one {!Pressure.t} per
    shard; the coordinator then calls {!observe_pressure} at its sample
    cadence.  While a shard is [Pressured] or worse, its dispatches are
    followed by a synchronous sweep and its effective batch capacity is
    halved; if the store is {!robust}, [Degraded_*] additionally sheds
    deferred writes (see {!enqueue_put}). *)

val arm_pressure : t -> Pressure.config array -> unit
(** One config per shard ([Invalid_argument] on length mismatch);
    callers typically derive budgets from {!ref_mem_bound}.  Shedding
    follows {!robust}: a non-robust store (EBR, NR — the negative
    control) is monitor-only.  It still walks the levels, records its
    transitions and applies the [Pressured] mitigations, but admits
    every write. *)

val observe_pressure : ?sweep_tid:int -> t -> now:float -> Pressure.level
(** Feed every shard's gauge and queued-write backlog into its state
    machine; returns the worst shard level.
    Coordinator-side; [Healthy] and a no-op when disarmed.

    [sweep_tid] must be a client slot owned by the coordinator (never
    used by a worker): shards at [Pressured] or worse then get a
    synchronous reclamation pass through it.  Without this,
    [Degraded_all] is a trap — shedding every write also sheds the
    retires whose path triggers reclamation, freezing the gauge above
    the exit threshold. *)

val pressure : t -> int -> Pressure.t option
(** Shard [i]'s state machine, for verdicts and artifacts. *)

val shard_level : t -> int -> Pressure.level
(** Current level of shard [i] — one atomic load ([Healthy] when
    disarmed).  Safe from any domain. *)
