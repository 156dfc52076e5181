(** Harris' lock-free linked list with Safe Concurrent Optimistic Traversals
    (SCOT) — the paper's main list contribution (Figures 3-5).

    An ordered integer set supporting lock-free [insert]/[delete] and
    read-only optimistic [search]: logically deleted (marked) nodes are
    skipped without being unlinked and whole marked chains are removed with
    a single CAS.  The SCOT validation (§3.1-3.2) makes this safe under
    every robust SMR scheme: the traversal protects the first node of each
    marked chain in an extra hazard slot and re-validates, at every step
    through the "dangerous zone", that the last safe node still points to
    it, restarting (or recovering, §3.2.1) otherwise.  With that
    validation off the same code is Harris' original list (Figure 3), the
    Figure 2 baseline.

    Keys may be any [int] below [max_int] (the tail-sentinel key). *)

val slots_needed : int
(** Number of hazard slots to pass to {!Smr.Smr_intf.S.create} ([4]):
    three that rotate between the next, current and last safe node, plus
    one for the first node of a marked chain (§3.2). *)

type validation = [ `Recover | `Restart | `Off ]
(** What a traversal does in the dangerous zone:
    - [`Recover]: SCOT validation with the §3.2.1 recovery optimisation —
      on a failed validation the traversal continues from the last safe
      node when it is still unmarked, instead of restarting from the head;
    - [`Restart]: SCOT validation, restarting from the head when it fails;
    - [`Off]: no validation — Harris' original list, which steps onto
      reclaimed memory under the robust schemes (Figure 2; Table 1's
      first row).  Corruption surfaces as {!Memory.Fault.Use_after_free}
      (the simulated SEGFAULT): a reclaimed or null node, a double retire,
      or a find longer than ten million hops (a cycle through recycled
      nodes).  For tests and demonstrations only. *)

module Make (S : Smr.Smr_intf.S) : sig
  type t
  (** A list instance (shared by all threads). *)

  type handle
  (** A per-thread access handle; not thread-safe, one per thread id. *)

  val create :
    ?validation:validation -> ?recycle:bool -> smr:S.t -> threads:int ->
    unit -> t
  (** [create ~smr ~threads ()] builds an empty set over the given SMR
      instance.  [validation] defaults to [`Recover].  [recycle] (default
      [true]) lets the node pool reuse reclaimed nodes (making
      ABA/use-after-free real). *)

  val handle : t -> tid:int -> handle
  (** Register thread [tid] (0-based, < [threads]) and return its handle:
      [handle_on t (S.register smr ~tid)]. *)

  val handle_on : t -> S.th -> handle
  (** A handle on an existing registration, so several lists can share
      one per-thread limbo and one set of hazard slots (the hash map's
      buckets).  Precondition: the registration was made on the same SMR
      instance the list was created with. *)

  val insert : handle -> int -> bool
  (** [insert h k] adds [k]; [false] if already present.  Lock-free. *)

  val delete : handle -> int -> bool
  (** [delete h k] logically deletes [k] (marking) and attempts one unlink;
      [false] if absent.  Lock-free. *)

  val search : handle -> int -> bool
  (** [search h k] — read-only optimistic membership test.  Lock-free
      (wait-free in the {!Harris_list_wf} extension). *)

  val search_hooked : handle -> int -> on_step:(unit -> unit) -> bool
  (** Like {!search} but invokes [on_step] on every traversal step; the
      hook may raise to abandon the search (hazard slots are released).
      Used by the wait-free extension's slow path (Figure 7). *)

  val search_bounded : handle -> int -> max_restarts:int -> bool option
  (** Like {!search} but gives up with [None] after more than
      [max_restarts] traversal restarts — the wait-free fast path (§3.4). *)

  val range_mem : handle -> lo:int -> hi:int -> int list
  (** [range_mem h ~lo ~hi] — every key in [\[lo, hi\]] that is a member,
      in ascending order, duplicate-free.  Lock-free.  Linearizable only
      per key: keys present for the whole scan are included and keys
      absent throughout are not; a key inserted or deleted concurrently
      may or may not appear.  Exercises guard composition: the scan holds
      several simultaneously protected nodes whose branded guards are
      passed between traversal steps under one operation token. *)

  (** {2 Single-bracket batch composition}

      The operation bodies are top-level rank-2 records ({!Smr.Smr_intf.op2}):
      universally quantified in the bracket brand ['op], so they run under
      {e any} live token — which is what lets a multi-operation wrapper
      (the hash map's [apply_batch], the store tier's batch dispatch)
      execute a whole group of operations under a single
      [start_op]/[end_op], paying one reservation publish per group
      instead of per op.  Rules: enter the bracket on the registration
      every handle the body touches was built on ({!handle_on}), and run
      the bodies sequentially: element [i+1] reuses the hazard slots of
      element [i], exactly as two back-to-back brackets would.  Holding
      the bracket across the group delays era/epoch release until the
      group ends — the deliberate batching trade-off (memory held
      slightly longer for fewer publishes). *)

  val search_body : (handle, int, bool) Smr.Smr_intf.op2

  val insert_body : (handle, int, bool) Smr.Smr_intf.op2

  val delete_body : (handle, int, bool) Smr.Smr_intf.op2

  val quiesce : handle -> unit
  (** Force a reclamation pass on this thread's retired nodes. *)

  val recover : handle -> handle
  (** [recover h] — crash recovery: deactivate the dead handle [h]
      (unpublish its reservations), register a replacement on the same
      tid, adopt the orphaned limbo into the replacement and sweep it
      once.  Only call after [h]'s owner domain has died; [h] must not
      be used afterwards. *)

  val restarts : t -> int
  (** Total traversal restarts across all threads (Table 2's metric). *)

  val unreclaimed : t -> int
  (** Retired-but-not-yet-reclaimed node count (Figures 10/12b metric). *)

  val pool_stats : t -> (string * int) list
  (** Allocation/recycling counters of the node pool. *)

  (** {2 Quiescent-only observers}

      The following must only be called while no operation is in flight. *)

  val to_list : t -> int list
  (** Current contents in ascending order (marked nodes excluded). *)

  val size : t -> int

  val check_invariants : t -> unit
  (** Raises [Failure] if the physical list violates strict key ordering. *)
end
