(** Harris' list with SCOT and wait-free traversals (§3.4, Figure 7).

    [search] runs the regular lock-free fast path for a bounded number of
    restarts, then posts a help request; update operations poll for
    requests (amortised round-robin) and run the same slow-path search on
    the requester's behalf, the first finisher publishing the result with a
    single CAS.  Traversals become wait-free (Theorem 7); [insert] and
    [delete] remain lock-free. *)

val slots_needed : int

module Make (S : Smr.Smr_intf.S) : sig
  type t
  type handle

  val create :
    ?recycle:bool ->
    ?fast_restarts:int ->
    ?help_delay:int ->
    smr:S.t ->
    threads:int ->
    unit ->
    t
  (** [fast_restarts] (default 4) bounds the fast path's restarts before a
      help request is posted; [help_delay] (default 16) amortises the
      helpers' polling (the DELAY constant of Figure 7). *)

  val handle : t -> tid:int -> handle

  val insert : handle -> int -> bool
  (** Lock-free; also helps at most one pending search request. *)

  val delete : handle -> int -> bool
  (** Lock-free; also helps at most one pending search request. *)

  val search : handle -> int -> bool
  (** Wait-free (Theorem 7): bounded fast path, then the helped slow path. *)

  val range_mem : handle -> lo:int -> hi:int -> int list
  (** Lock-free (not wait-free: the helping protocol has no scan
      analogue); see {!Harris_list.Make.range_mem}. *)

  val quiesce : handle -> unit

  val recover : handle -> handle
  (** Crash recovery: deactivate the dead handle, register a replacement
      on the same tid, adopt the orphaned limbo and sweep it once.  Only
      call after the owner domain has died (see {!Harris_list.Make.recover}). *)

  val restarts : t -> int
  val unreclaimed : t -> int

  (** {2 Quiescent-only observers} *)

  val to_list : t -> int list
  val size : t -> int
  val check_invariants : t -> unit
end
