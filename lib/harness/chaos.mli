(** Deterministic fault injection at SMR injection points.

    An engine owns one fault cell per tid and installs itself as the
    {!Smr.Probe} handler.  Declarative {!schedule}s arm stalls and crashes
    at named injection points ({!Smr.Probe.point}); parked domains hold
    their published reservations, crashed domains skip [end_op] — the two
    adversarial behaviours the paper's robustness results are stated
    against.  When no engine is installed every injection point is a single
    never-taken branch (the op-allocs benchmark asserts the fast paths stay
    allocation-free). *)

exception Crashed
(** Raised from inside an operation by a crashing or killed tid; the
    operation unwinds without [end_op], leaking its published protection.
    {!Soak.run} treats it as a terminal worker event, not an error. *)

type action =
  | Stall of { for_s : float option }
      (** Park at the point until [resume] (or, with [Some s], for at most
          [s] seconds on {!Clock}). *)
  | Crash  (** Raise {!Crashed}; the tid is poisoned thereafter. *)

type rule = { tid : int; point : Smr.Probe.point; after : int; action : action }
(** Fire [action] on [tid]'s [after+1]-th crossing of [point]. *)

type schedule = rule list

type event = { ev_tid : int; ev_point : Smr.Probe.point; ev_action : action }

type t

val create : threads:int -> unit -> t

val threads : t -> int

val install : t -> unit
(** Make [t] the live probe handler (enables all injection points). *)

val uninstall : unit -> unit
(** Disable all injection points; fast paths are branch-only again. *)

val arm : t -> tid:int -> point:Smr.Probe.point -> after:int -> action -> unit
(** Fire-once: the rule disarms as it triggers (re-[arm] to repeat). *)

val disarm : t -> tid:int -> point:Smr.Probe.point -> unit
val apply : t -> schedule -> unit

val resume : t -> tid:int -> unit
(** Wake a parked tid (no-op if it is not parked). *)

val kill : t -> tid:int -> unit
(** Poison the tid: parked -> wakes and raises {!Crashed}; running ->
    raises at its next probe crossing.  Reversible only through
    {!revive}, once the domain is gone. *)

val revive : t -> tid:int -> unit
(** Clear a tid's crashed/parked state and disarm its pending rules, so
    a replacement worker respawned on the same tid (after deactivate +
    adopt) runs fault-free.  Only call once the old domain has died. *)

val release_all : t -> unit
(** [resume] every tid — run teardown must call this before joining. *)

val parked : t -> tid:int -> bool
val crashed : t -> tid:int -> bool

val wait_parked : ?timeout_s:float -> t -> tid:int -> bool
(** Block until the tid parks (default timeout 5s); [false] on timeout or
    if the tid crashed instead. *)

val events : t -> event list
(** Triggered rules in global trigger order.  Per-tid subsequences are
    deterministic for a fixed schedule and per-tid op sequence; the global
    interleaving is only deterministic when a single tid is armed. *)

val trace : t -> string list
(** [events] rendered ["tid=3 point=retire action=stall"]-style. *)

val event_to_string : event -> string
val rule_to_string : rule -> string
val action_name : action -> string

val random_schedule : threads:int -> seed:int -> schedule
(** Seeded generator for the fuzzer: 1..threads-1 rules over worker tids
    [1, threads), stalls always deadline-bounded so runs self-terminate. *)

val mem_bound :
  (module Smr.Smr_intf.S) ->
  config:Smr.Smr_intf.config ->
  threads:int ->
  slots:int ->
  range:int ->
  ?adopted:int ->
  stalled:int ->
  unit ->
  int option
(** Node-count ceiling [unreclaimed] must stay under for a robust scheme
    with [stalled] faulted threads; [None] for non-robust schemes (EBR/NR,
    whose growth the chaos validator asserts instead).  [adopted] (default
    0) adds the post-recovery transient: one orphan limbo buffer per
    adopted handle, unswept in its adopter until the adopter's next pass.
    See the formula derivation in the implementation. *)
