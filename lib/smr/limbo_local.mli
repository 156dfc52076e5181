(** Shared per-thread limbo bookkeeping for deferred-reclamation schemes.

    Owns the retired-node buffer, the retire counter, the shared
    unreclaimed gauge wiring and the adaptive-threshold {!Tuner};
    schemes keep only their protection predicate and era policy.
    Single-owner, like the underlying {!Memory.Limbo}. *)

type t

(** [create ~config ~start ~in_limbo ~tid] — [start] is the scheme's
    static trigger (its [limbo_threshold], or [batch_size] for Hyaline);
    the buffer is pre-sized to it (clamped into the adaptive bounds) so
    the static steady state never grows the buffer. *)
val create :
  config:Smr_intf.config -> start:int -> in_limbo:Memory.Tcounter.t ->
  tid:int -> t

(** Nodes currently in this thread's limbo. *)
val length : t -> int

(** Lifetime retire count (drives [epoch_freq]-style policies). *)
val retires : t -> int

(** Effective pass/batch trigger: the tuner's current threshold (equals
    [start] forever when [adaptive = `Off]).  One atomic load. *)
val threshold : t -> int

(** The handle's controller, for stats aggregation. *)
val tuner : t -> Tuner.t

(** Append a retired node (caller already marked/stamped it) and bump the
    shared gauge.  Zero allocation below capacity. *)
val push : t -> Smr_intf.reclaimable -> unit

(** [sweep t ~protected_] frees every node for which [protected_] is
    false (calling its [free] with this thread's id and decrementing the
    gauge), compacts the survivors in place, and reports the outcome to
    the tuner. *)
val sweep : t -> protected_:(Smr_intf.reclaimable -> bool) -> unit

(** Detach the whole buffer as a fresh array (Hyaline batch dispatch);
    the gauge is left untouched — the nodes are still unreclaimed.
    Reports a gauge-only observation to the tuner. *)
val take : t -> Smr_intf.reclaimable array

(** [adopt ~victim ~into] moves every node of [victim]'s buffer into
    [into]'s and transfers the corresponding gauge counts between the
    two tids' cells.  Both must share one scheme instance; [victim]'s
    owner must be dead and [into]'s owner quiescent (crash-recovery
    cold path — allocates). *)
val adopt : victim:t -> into:t -> unit
