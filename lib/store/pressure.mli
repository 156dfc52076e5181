(** Per-shard overload state machine for the store tier.

    Driven by periodic {!observe} calls scoring the shard's SMR gauge
    (plus batch backlog) against an operator budget.  Ascent through
    [Healthy -> Pressured -> Degraded_ttl -> Degraded_all] is immediate
    (a retire burst can cross several thresholds inside one sample
    period); descent is hysteretic — one level at a time, each step
    requiring [quiesce_samples] consecutive observations below
    [exit_margin] of the current level's entry threshold, so admission
    does not flap at the sample frequency.

    {!level} is one atomic load and is the only part read from client
    hot paths; {!observe} and the introspection calls are
    coordinator-side and mutex-guarded. *)

type level =
  | Healthy  (** normal operation *)
  | Pressured
      (** mitigation: synchronous sweeps after dispatch, halved effective
          batch capacity *)
  | Degraded_ttl  (** shed TTL-carrying writes; durable writes/reads flow *)
  | Degraded_all  (** shed every write; reads still flow *)

val level_rank : level -> int
(** [Healthy = 0] .. [Degraded_all = 3]. *)

val level_name : level -> string
(** ["healthy" | "pressured" | "degraded-ttl" | "degraded-all"]. *)

type config = {
  budget : int;  (** node budget the thresholds are fractions of *)
  enter_pressured : float;
  enter_degraded : float;
  enter_shed_all : float;
  exit_margin : float;
  quiesce_samples : int;
  queue_weight : float;
      (** weight of the queued-write backlog in the pressure ratio *)
}

val make_config :
  ?enter_pressured:float ->
  ?enter_degraded:float ->
  ?enter_shed_all:float ->
  ?exit_margin:float ->
  ?quiesce_samples:int ->
  ?queue_weight:float ->
  budget:int ->
  unit ->
  config
(** Defaults: enter at 0.5/0.75/1.0 of [budget], exit below 0.5 of the
    entry threshold, 3 calm samples per descent, queue weight 1.0.
    Validates ordering and positivity ([Invalid_argument]). *)

type transition = {
  tr_t : float;
  tr_from : level;
  tr_to : level;
  tr_ratio : float;
}

type t

val create : config -> t
val config : t -> config

val level : t -> level
(** Current level — one atomic load, safe from any domain. *)

val observe : t -> gauge:int -> queued:int -> now:float -> level
(** Feed one observation ([gauge] unreclaimed nodes, [queued] backlogged
    writes, [now] in seconds on the caller's clock) and return the level
    after applying the transition rules above. *)

val transitions : t -> transition list
(** Chronological transition log (for artifacts). *)

val max_level : t -> level
(** Worst level ever entered. *)

val peak_ratio : t -> float
val peak_gauge : t -> int
val observations : t -> int
