(** Natarajan-Mittal lock-free external binary search tree [24] with SCOT
    (§3.3) — the paper's tree contribution.

    All real keys live in leaves; internal nodes carry routing keys.  A
    deletion flags the leaf edge, tags the sibling edge and prunes the whole
    branch (possibly a chain of tagged edges accumulated by concurrent
    deletions) with one CAS at the *ancestor*.  Traversals skip tagged and
    flagged edges optimistically; SCOT validates at every step through this
    dangerous zone that the ancestor still points to the successor,
    restarting otherwise.  The recovery optimisation is intentionally not
    applied (§3.2.2: it does not help the tree).

    Valid keys are below [inf1] ([max_int - 1]); [inf1]/[inf2] are the
    sentinel routing keys. *)

(** Hazard-slot roles (§3.3). *)

val hp_child : int
(** Slot 0: the current child pointer being followed. *)

val hp_leaf : int
(** Slot 1: the current leaf candidate. *)

val hp_parent : int
(** Slot 2: the parent of the leaf. *)

val hp_successor : int
(** Slot 3: the successor — the entrance of the tagged zone. *)

val hp_ancestor : int
(** Slot 4: the ancestor whose edge must keep pointing at the successor. *)

val slots_needed : int
(** Number of hazard slots to pass to {!Smr.Smr_intf.S.create} ([5]). *)

val inf1 : int
(** First sentinel key ([max_int - 1]); keys must be strictly below it. *)

val inf2 : int
(** Second sentinel key ([max_int]). *)

module Make (S : Smr.Smr_intf.S) : sig
  type t
  type handle

  val create : smr:S.t -> threads:int -> unit -> t
  val handle : t -> tid:int -> handle

  val insert : handle -> int -> bool
  (** Lock-free; [false] if the key is present.  Raises [Invalid_argument]
      for keys >= {!inf1}. *)

  val delete : handle -> int -> bool
  (** Lock-free two-phase deletion (injection, then cleanup); returns only
      after the leaf is physically unreachable. *)

  val search : handle -> int -> bool
  (** Read-only optimistic traversal from the root to a leaf. *)

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
  (** Real keys (sentinels excluded) in ascending order. *)

  val size : t -> int

  val check_invariants : t -> unit
  (** Raises [Failure] if a leaf key violates the routing-key ranges. *)
end
