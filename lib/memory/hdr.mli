(** Object header carried by every managed node.

    The header makes manual reclamation observable in a GC'd language:
    it tracks the node's lifecycle (live / retired / reclaimed), the birth
    and retire eras used by era-based SMR schemes, and a serial number bumped
    on every reuse so ABA and use-after-free become detectable.

    The state and serial share one atomic word, so every lifecycle
    transition is a single CAS.  The birth and retire eras are plain
    mutable fields, not atomics: each is written before the node is
    published (by the structure's linking CAS, or by the handover of
    limbo through atomics) and read only after an atomic load that
    observes that publication, which orders the write before the read.
    A stale reader of a recycled node reads either era whole. *)

type state = Live | Retired | Reclaimed

type t

(** Fresh header in the [Live] state, serial 0, eras 0. *)
val create : unit -> t

val state : t -> state

(** Serial number; incremented each time the node is reclaimed. *)
val serial : t -> int

(** Era at which the node was allocated (set by the SMR scheme's
    allocation hook). *)
val birth : t -> int

(** Era at which the node was retired. *)
val retire_era : t -> int

val set_birth : t -> int -> unit
val set_retire_era : t -> int -> unit

(** Transition Live -> Retired.  Raises [Invalid_argument] on double retire —
    retiring a node twice is a data-structure bug. *)
val mark_retired : t -> unit

(** Transition Retired -> Reclaimed (the simulated [free]): poisons the
    header and bumps the serial.  Raises [Invalid_argument] on double free. *)
val mark_reclaimed : t -> unit

(** Transition Reclaimed -> Live (the simulated [malloc] from a freelist). *)
val mark_live_for_reuse : t -> unit

val is_reclaimed : t -> bool

(** Poison check — the simulated SEGFAULT.  Raises {!Fault.Use_after_free}
    if the node was reclaimed; it cannot be turned off.  The check
    inlines into the caller in release builds; formatting the fault
    message is an out-of-line cold call. *)
val check : t -> unit
