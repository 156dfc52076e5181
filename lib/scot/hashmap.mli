(** Lock-free hash set: an array of SCOT Harris lists (§2.3, §6.2).

    All buckets share one SMR instance, and {!Make.handle} registers on it
    once: every bucket handle shares that registration (one limbo, one set
    of hazard slots — a thread runs one bucket operation at a time), so
    unreclaimed memory is bounded as for one list, whatever the bucket
    count.  Each bucket owns its node pool.  Compatible with every scheme
    the SCOT list is. *)

val slots_needed : int

module Make (S : Smr.Smr_intf.S) : sig
  type t
  type handle

  val create :
    ?buckets:int ->
    smr:S.t ->
    threads:int ->
    unit ->
    t
  (** [buckets] defaults to 64. *)

  val handle : t -> tid:int -> handle
  (** Register [tid] once on the map's SMR instance and build every bucket
      handle on that registration ({!Harris_list.Make.handle_on}). *)

  val insert : handle -> int -> bool
  val delete : handle -> int -> bool
  val search : handle -> int -> bool

  val apply_batch : handle -> Batch_op.buf -> unit
  (** Execute every pending request in the buffer — routed to its bucket
      by key hash — under a {e single} [start_op]/[end_op] bracket,
      writing each result into [results].  One reservation publish per
      group instead of per op; requests run sequentially in buffer
      order, so intra-batch operations on the same key observe each
      other.  {e Contiguous} same-key repeats are coalesced: a repeat
      directly following its predecessor (no other physical op from
      this batch in between) linearizes immediately after it — a get
      reuses the known membership, and a put (delete) on a key known
      present (absent) is a failed no-op — skipping the traversal.
      An intervening op on a different key ends the run: its result can
      order concurrent external operations between predecessor and
      repeat, so the repeat must traverse again.  Delivered results are
      always explained by a linearization that keeps the batch in
      program order.  The buffer is left intact (caller calls
      {!Batch_op.clear}). *)

  val quiesce : handle -> unit
  (** One reclamation pass on the handle's registration. *)

  val recover : handle -> handle
  (** Crash recovery: deactivate the dead handle, register a replacement
      on the same tid, adopt the orphaned limbo and sweep it once.  Only
      call after the owner domain has died (see {!Harris_list.Make.recover}). *)

  (** {2 Quiescent-only observers} *)

  val size : t -> int
  val restarts : t -> int

  val elements : t -> int list
  (** All keys in ascending order. *)

  val check_invariants : t -> unit
end
