(** Harris-Michael lock-free linked list (Michael [20]) — the baseline the
    paper compares SCOT against.

    Same logical-deletion scheme as Harris' list, but marked nodes are
    physically unlinked immediately upon first encounter (including during
    [search]), restarting from the head when the unlink CAS fails.  This is
    HP-compatible without SCOT, at the price of more CAS traffic, mandatory
    restarts under contention (Table 2) and no read-only searches. *)

val slots_needed : int
(** Number of hazard slots to pass to {!Smr.Smr_intf.S.create} ([3]),
    rotating between the next, current and previous node. *)

module Make (S : Smr.Smr_intf.S) : sig
  type t
  type handle

  val create : smr:S.t -> threads:int -> unit -> t
  val handle : t -> tid:int -> handle
  val insert : handle -> int -> bool
  val delete : handle -> int -> bool

  val search : handle -> int -> bool
  (** Note: unlike Harris' list, a search may perform unlink CASes. *)

  val quiesce : handle -> unit

  val recover : handle -> handle
  (** Crash recovery: deactivate the dead handle, register a replacement
      on the same tid, adopt the orphaned limbo and sweep it once.  Only
      call after the owner domain has died (see {!Harris_list.Make.recover}). *)

  val restarts : t -> int
  (** Total traversal restarts (grows quickly under contention, Table 2). *)

  val unreclaimed : t -> int
  val pool_stats : t -> (string * int) list

  (** {2 Quiescent-only observers} *)

  val to_list : t -> int list
  val size : t -> int
  val check_invariants : t -> unit
end
