(** Per-tid registration seats for handle-slot reuse.

    Each scheme instance tracks which tids hold a live handle:
    {!Smr_intf.S.register} claims the tid's seat, {!Smr_intf.S.deactivate}
    releases it, so a crashed domain's tid can be re-registered once its
    dead handle is deactivated (previously slots were claimed forever).
    A tid holds at most one live handle per instance. *)

type t

val create : threads:int -> t

(** Claim [tid]'s seat.  Raises [Invalid_argument] if [tid] already
    holds a live handle.  Safe from any thread. *)
val claim : t -> tid:int -> unit

(** Release [tid]'s seat; idempotent.  Safe from any thread. *)
val release : t -> tid:int -> unit

(** Seats currently held across all tids. *)
val total : t -> int
