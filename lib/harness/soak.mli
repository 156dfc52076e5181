(** The soak engine: the one coordinator protocol behind every timed
    multi-domain run ({!Runner}, the store's [Serve] and [Overload]).

    A soak is a {!target}, a per-tid worker body and an optional
    per-sample hook.  The engine spawns one domain per worker and
    releases them together; every [sample_every] seconds until the end
    time it publishes the phase index, samples the unreclaimed gauge,
    calls the hook and advances the {!Supervisor}.  Then it raises the
    stop flag, runs the final supervision pass {e before} the target's
    shutdown (so {!Chaos.revive} targets the engine that poisoned the
    tid), shuts the target down, joins and quiesces.  Times are seconds
    since release on {!Clock}. *)

type target = {
  threads : int;  (** SMR participants; the final quiesce covers them all *)
  unreclaimed : unit -> int;
  recover : tid:int -> unit;  (** deactivate + adopt a dead worker's handles *)
  quiesce : tid:int -> unit;
  engine : unit -> Chaos.t;  (** created and installed on first call *)
  shutdown : unit -> unit;
      (** wake parked tids and uninstall the engine; idempotent *)
}

val target :
  threads:int ->
  unreclaimed:(unit -> int) ->
  recover:(tid:int -> unit) ->
  quiesce:(tid:int -> unit) ->
  target
(** A lazily-created chaos engine over [threads] tids; [shutdown] disarms
    every rule before waking the parked tids, so no stall fires after. *)

val instance_target : Instance.t -> target

(** The body runs on the worker's domain: set-up before the release
    barrier, then the loop it returns. *)
type worker = {
  tid : int;
  stop : bool Atomic.t;
  phase : int Atomic.t;  (** the published phase index *)
  beat : int Atomic.t;  (** bump once per op (heartbeat or a dummy) *)
  ops : int ref;  (** ops completed; counted even when the body dies *)
}

type ctl
(** The coordinator's handle, passed to the per-sample hook. *)

val now : ctl -> float
val phase : ctl -> int
val set_phase : ctl -> int -> unit
val set_until : ctl -> float -> unit  (** move the end time *)

val join : ctl -> tid:int -> unit
(** Join an exiting worker early; the final join skips it. *)

val park : ctl -> tids:int list -> int
(** Stall each tid at its next protected load; returns how many parked
    within 1 s each. *)

val release : ctl -> tids:int list -> unit
(** Disarm, then resume the tids that parked (an early resume is lost). *)

type outcome = {
  elapsed : float;  (** release to stop flag: the throughput window *)
  wall_total : float;  (** release to the last join *)
  ops : int;
  faults : int;  (** workers killed by a simulated use-after-free *)
  mem_series : Metrics.mem_sample list;
  max_unreclaimed : int;
  avg_unreclaimed : float;
  recoveries : Metrics.recovery_event list;
}

val run :
  ?sample_every:float ->
  ?schedule:Workload.schedule ->
  ?supervise:Supervisor.config ->
  ?on_sample:(ctl -> now:float -> unit) ->
  target ->
  workers:int ->
  duration:float ->
  (worker -> unit -> unit) ->
  outcome
(** Run tids [\[0, workers)] for [duration] seconds (default sampling
    0.01 s).  [schedule] drives the phase index; [supervise] recovers and
    respawns dead workers.  A body
    killed by {!Chaos.Crashed} stops (and is reported to the supervisor);
    one killed by a use-after-free counts in [faults].  Tids that refuse
    the final quiesce are skipped. *)

(** {2 Verdicts} *)

type check = { name : string; ok : bool; detail : string }

val check : ?detail:string -> string -> bool -> check

val failures : check list -> string list
(** Every failed check, in order, as [name] or [name:detail]. *)

val verdict : check list -> string
(** ["ok"] when every check passed, else the first failure. *)
