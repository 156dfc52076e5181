(** Harris' original list with naive SMR integration — deliberately WITHOUT
    the SCOT validation.  Reproduces the paper's Figure 2 incompatibility:
    under HP/HE/IBR/Hyaline-1S an optimistic traversal can step onto
    reclaimed memory, raising {!Memory.Fault.Use_after_free} (the simulated
    SEGFAULT), corrupting the list, or double-retiring nodes.

    Safe under EBR and NR only (Table 1, first row).  For tests and
    demonstrations; never use this in real code. *)

val hp_next : int
val hp_curr : int
val hp_prev : int
val slots_needed : int

module Make (S : Smr.Smr_intf.S) : sig
  type t
  type handle

  val create : ?recycle:bool -> smr:S.t -> threads:int -> unit -> t
  val handle : t -> tid:int -> handle

  val insert : handle -> int -> bool
  (** May raise {!Memory.Fault.Use_after_free} under robust schemes. *)

  val delete : handle -> int -> bool
  (** May raise {!Memory.Fault.Use_after_free} under robust schemes. *)

  val search : handle -> int -> bool
  (** May raise {!Memory.Fault.Use_after_free} under robust schemes. *)

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
  (** A no-op: the Figure-2 variant may legitimately corrupt. *)
end
