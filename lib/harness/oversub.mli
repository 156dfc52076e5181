(** Deterministic oversubscription: run [threads] workload tids on
    [runnable] virtual cores by parking the excess {e mid-operation}
    with the chaos engine.

    Real oversubscription ([--workers] > domains) relies on the OS
    scheduler to preempt somebody eventually; this module manufactures
    the adversary the paper's robustness claims are about — a worker
    descheduled with its reservations published — deterministically:
    parked tids sit at a {!Smr.Probe.Read} crossing (announcement
    pinned) until rotated back in.

    The coordinator calls {!tick} at its sample cadence; each tick
    resumes the longest-parked tid and arms the longest-running one to
    park at its next probe crossing, so every worker makes progress
    while [threads - runnable] always sit mid-operation.

    Load-bearing subtleties (see the implementation for why):
    a resume issued before the victim has actually parked is lost, so
    {!tick} only resumes tids the engine reports as parked; and
    {!release} disarms before resuming, so an unfired stall rule cannot
    park a victim after the rotation has shut down. *)

type t

val create :
  ?point:Smr.Probe.point -> Chaos.t -> tids:int list -> runnable:int -> t
(** The first [runnable] tids (in list order) start running; the rest
    are armed to park at [point] (default [Read]).
    [Invalid_argument] unless [1 <= runnable <= List.length tids]. *)

val tick : t -> unit
(** One rotation step: resume the head of the parked queue if it has
    actually parked, arming the head of the running queue to take its
    place.  A no-op when nothing is parked yet — call again at the next
    sample.  Tids crashed by other fault schedules drop out of the
    rotation. *)

val release : t -> unit
(** Shut the rotation down: disarm every rule this module armed, then
    wake every parked tid.  Idempotent; call before joining workers. *)

val rotations : t -> int
(** Completed rotation swaps — the artifact's evidence that the excess
    workers actually time-sliced rather than starving. *)

