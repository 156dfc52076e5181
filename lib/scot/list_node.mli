(** Shared node representation for the list-based sets.

    A link is a boxed record carrying the destination and the
    logical-deletion mark; CAS on the containing [Atomic.t] with the
    physically read record mirrors word-CAS on a tagged pointer.  Each node
    carries its two canonical incoming links and a prebuilt [reclaimable]
    record so the operation fast paths never allocate. *)

type t = {
  hdr : Memory.Hdr.t;
  mutable key : int;
  next : link Atomic.t;
  in_link : link;  (** canonical [{ ln = Some self; marked = false }] *)
  in_link_marked : link;  (** canonical [{ ln = Some self; marked = true }] *)
  mutable rc : Smr.Smr_intf.reclaimable;
      (** prebuilt retire record; pool-bound [free] *)
}

and link = { ln : t option; marked : bool }

val link : ?marked:bool -> t option -> link
val null_link : link

val marked_null : link
(** The canonical [{ ln = None; marked = true }]. *)

val marked_copy : link -> link
(** The marked copy used by logical deletion (Figure 3, L21); returns the
    target's canonical marked link — no allocation. *)

val unmarked_copy : link -> link
(** Unmarked view of a link (Harris-Michael eager unlink); canonical. *)

val desc : link Smr.Smr_intf.desc
(** Field descriptor for staged protected loads. *)

val fresh : key:int -> next:link -> t

val key : t -> int
(** Dereference with poison check (models a C pointer dereference). *)

val next_field : t -> link Atomic.t
(** Dereference with poison check. *)

module Pool : sig
  type node := t
  type t

  val create : threads:int -> unit -> t
  val alloc : t -> tid:int -> (unit -> node) -> node
  val free : t -> tid:int -> node -> unit
  val allocated_fresh : t -> int
  val recycled : t -> int
  val freed : t -> int
  val live_estimate : t -> int
end

val maker : Pool.t -> unit -> t
(** [maker pool] is the make-function to pass to {!alloc}: build it once per
    pool; fresh nodes get a pool-bound [rc], recycled nodes keep theirs. *)

val alloc : Pool.t -> tid:int -> mk:(unit -> t) -> key:int -> next:link -> t
(** Simulated [malloc]: recycles when possible and re-initialises fields.
    [mk] must be this pool's prebuilt {!maker}. *)

val dealloc : Pool.t -> tid:int -> t -> unit
(** Simulated [free] of a never-published node (lost insert races). *)
