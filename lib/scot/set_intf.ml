(* The set interface every structure functor's output satisfies: the slice
   the type-erased drivers ([Harness.Instance], [Scotstore.Shard]) need.
   Construction stays per structure ([create] arguments differ). *)

module type S = sig
  type t
  type handle

  val handle : t -> tid:int -> handle
  val insert : handle -> int -> bool
  val delete : handle -> int -> bool
  val search : handle -> int -> bool
  val quiesce : handle -> unit

  val recover : handle -> handle
  (** Replace a dead owner's handle, adopting its orphaned limbo. *)

  val restarts : t -> int
  val size : t -> int
  val check_invariants : t -> unit
end

(** Structures that run a request group under one bracket. *)
module type BATCHED = sig
  include S

  val apply_batch : handle -> Batch_op.buf -> unit
end
