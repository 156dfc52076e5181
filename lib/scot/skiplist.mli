(** Lock-free skip list with SCOT per-level optimistic traversals — the
    Table 1 extension (Fraser [12] / Herlihy-Shavit [18] family).

    Searches skip logically deleted nodes at every level under the SCOT
    dangerous-zone validation; update traversals unlink eagerly at upper
    levels and remove level-0 chains with one CAS.  Tall nodes are
    published with several CASes, so reclamation uses an ownership
    handoff: exactly one of the inserter (still linking upper levels) and
    the deleter retires the node, always after an unlinking traversal —
    see the implementation header for the full argument. *)

val max_height : int

val slots_needed : int
(** [4 + max_height] hazard slots: next / curr / first-unsafe / own node,
    plus one predecessor slot per level. *)

module Make (S : Smr.Smr_intf.S) : sig
  type t
  type handle

  (** [optimistic:false] is the Herlihy-Shavit-style baseline: searches use
      the eager-unlink traversal (no read-only searches), the skip-list
      analogue of the Harris-Michael list. *)
  val create : ?optimistic:bool -> smr:S.t -> threads:int -> unit -> t
  val handle : t -> tid:int -> handle

  val insert : handle -> int -> bool
  (** Lock-free; tower height is geometric (p = 1/2). *)

  val delete : handle -> int -> bool
  (** Lock-free; marks the tower top-down, level 0 decides the winner. *)

  val search : handle -> int -> bool
  (** Read-only optimistic traversal at every level. *)

  val apply_batch : handle -> Batch_op.buf -> unit
  (** Execute every pending request in the buffer under a {e single}
      [start_op]/[end_op] bracket, writing each result into [results] —
      one reservation publish per group instead of per op, with
      contiguous same-key repeats coalesced (see
      {!Hashmap.Make.apply_batch}).
      Requests run sequentially in buffer order; the buffer is left
      intact (caller calls {!Batch_op.clear}). *)

  val quiesce : handle -> unit

  val recover : handle -> handle
  (** Crash recovery: deactivate the dead handle, register a replacement
      on the same tid, adopt the orphaned limbo and sweep it once.  Only
      call after the owner domain has died (see {!Harris_list.Make.recover}). *)

  val restarts : t -> int
  val unreclaimed : t -> int
  val pool_stats : t -> (string * int) list

  (** {2 Quiescent-only observers} *)

  val to_list : t -> int list
  val size : t -> int
  val check_invariants : t -> unit
end
