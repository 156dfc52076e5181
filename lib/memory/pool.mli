(** Recycling node pools — the simulated [malloc]/[free].

    SMR schemes call [free] once a retired node is provably unreachable;
    the pool poisons its header and recycles it through per-thread
    freelists (array-backed LIFO stacks — no cons per free/alloc).
    Recycling makes ABA and use-after-free observable, which is what the
    SCOT validation protects against. *)

module type NODE = sig
  type t

  val hdr : t -> Hdr.t
end

module Make (N : NODE) : sig
  type t

  (** [create ~threads ()] builds a pool with one freelist per thread.
      Every pool recycles: a freed node is the next [alloc] on its thread. *)
  val create : threads:int -> unit -> t

  (** [alloc t ~tid make] pops a recycled node from [tid]'s freelist
      (marking it live again) or calls [make] for a fresh one.  The caller
      must re-initialise all node fields before publishing the node. *)
  val alloc : t -> tid:int -> (unit -> N.t) -> N.t

  (** [free t ~tid node] poisons [node]'s header (Retired -> Reclaimed) and
      pushes it on [tid]'s freelist.  Must only be called by an SMR scheme
      on a node that is safely unreachable. *)
  val free : t -> tid:int -> N.t -> unit

  val allocated_fresh : t -> int
  val recycled : t -> int
  val freed : t -> int
  val live_estimate : t -> int
end
