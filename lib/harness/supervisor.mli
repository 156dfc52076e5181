(** Crash supervision for {!Soak} workers: per-worker heartbeat cells, a
    watchdog that detects workers dead past a timeout or raising
    {!Chaos.Crashed}, and a recovery path (join dead domain, revive the
    tid, deactivate + adopt its handle, respawn a replacement) driven from
    the coordinating domain's sample loop — no extra watchdog domain.

    The supervisor is a state machine advanced by {!check}; the soak
    engine supplies the domain-management callbacks so this module stays
    ignorant of how workers are spawned.  Every recovery is recorded as a
    {!Metrics.recovery_event}. *)

type config = {
  heartbeat_timeout : float;
      (** Seconds a worker's heartbeat may stand still before the watchdog
          poisons it via {!Chaos.kill}.  Tids parked by a deliberate stall
          schedule are exempt. *)
  max_restarts : int;  (** Respawn budget per tid; exceeded -> abandoned. *)
  backoff : float;
      (** Base seconds between a tid's recovery and its respawn, applied
          from the tid's second restart on; doubles with every further
          restart (see {!respawn_delay}). *)
  backoff_cap : float;  (** Ceiling on the exponential respawn delay. *)
}

val default : config
(** [{ heartbeat_timeout = 1.0; max_restarts = 3; backoff = 0.05;
       backoff_cap = 1.0 }].  The base is nonzero on purpose: a
    crash-looping worker with [backoff = 0.0] respawns the instant its
    recovery finishes, hot-spinning the join/recover/respawn cycle. *)

val respawn_delay : config -> restarts:int -> u:float -> float
(** The delay scheduled before respawn number [restarts] (1-based) of a
    tid.  The first respawn is immediate (one crash is not yet a loop,
    and recovery latency should not pay for backoff); from the second
    on: [backoff * 2^(restarts-2)] clamped to [backoff_cap], jittered
    multiplicatively into [[0.5, 1.0]] of itself by the uniform draw
    [u] in [[0, 1)].  Pure — exposed so tests can pin the exact deadline
    sequence; {!check} draws [u] from a seeded per-supervisor RNG. *)

type t

val create : ?seed:int -> config -> workers:int -> t
(** [seed] (default [0x5EED]) seeds the respawn-jitter RNG, making a
    supervised run's respawn deadlines reproducible. *)

val beat_cell : t -> tid:int -> int Atomic.t
(** The tid's heartbeat cell (cache-line spaced).  Workers grab it once
    and [Atomic.incr] it per completed operation — one padded-cell bump,
    no allocation. *)

val notify_crashed : t -> tid:int -> unit
(** Called by a dying worker from its {!Chaos.Crashed} handler; {!check}
    consumes the flag on the coordinator. *)

val check :
  t ->
  now:float ->
  final:bool ->
  engine:(unit -> Chaos.t) ->
  recover:(tid:int -> unit) ->
  join:(tid:int -> unit) ->
  respawn:(tid:int -> unit) ->
  unit
(** Advance every worker's state machine: consume crash notifications
    (join the dead domain, {!Chaos.revive} the tid, [recover] its handle,
    schedule a respawn or abandon), run the heartbeat watchdog, and fire
    due respawns.  [now] is seconds since worker release.  [final] is the
    one pass after the stop flag: it still recovers dead handles (so the
    post-run quiesce can drain them) but neither kills nor respawns.
    Call from the coordinating domain only, and run the [final] pass
    {e before} any fault-control shutdown so {!Chaos.revive} targets the
    engine that poisoned the tid. *)

val events : t -> Metrics.recovery_event list
(** Recoveries in chronological order. *)

