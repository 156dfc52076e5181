(** Timed multi-domain benchmark runs: prefill 50% of the key range,
    release all worker domains, run the op mix for a wall-clock duration
    while sampling the unreclaimed-object gauge (with timestamps), then
    stop, quiesce and validate. *)

type result = {
  structure : string;
  scheme : string;
  threads : int;
  range : int;
  mix : Workload.mix;
  ops : int;
  duration : float;
      (** measurement window: worker release to the stop flag — the
          throughput denominator *)
  wall_total : float;
      (** full run including [Domain.join] teardown and post-stop drain *)
  throughput : float; (** ops per second, all threads *)
  restarts : int;
  avg_unreclaimed : float; (** mean of the periodic samples (Figs 10-12) *)
  max_unreclaimed : int;
  mem_series : Metrics.mem_sample list;
      (** the timestamped samples, chronological *)
  op_stats : Metrics.op_stats list;
      (** per-kind hit/miss counters and latency percentiles *)
  scheme_stats : (string * int) list;
      (** SMR-scheme counters (epoch/era, limbo depth, ...) at run end *)
  faults : int; (** simulated use-after-free events (unsafe variants) *)
  final_size : int; (** -1 when the structure faulted *)
  recoveries : Metrics.recovery_event list;
      (** supervised crash recoveries, chronological (empty when
          [supervise] was not passed) *)
}

val default_sample_every : float

(** [run ~builder ~scheme ~threads ~range ~duration ()] executes one
    benchmark on the {!Soak} engine.  [mix] defaults to the paper's
    50r/25i/25d; [skew] (default {!Workload.Uniform}) selects the key
    distribution; [phases] (default none) cycles through a time-varying
    mix sequence, [mix] staying the label of record (resolution
    [sample_every], the gauge period); [config] is the SMR calibration;
    [check] (default true) verifies structure invariants after a
    fault-free run; [measure_latency] (default true) times every
    operation — when disabled the worker loop reads no clock and
    allocates nothing per operation; [recorders] lets callers running
    many repeats reuse the per-thread metric buffers (length must equal
    [threads]).

    Fault injection: [workers] (default [threads]) spawns workload
    domains only for tids [0, workers), the rest being SMR participants
    reserved for {!Instance.fault_control}; [prepare] runs before the
    release (stall victims there), [finish] after the final supervision
    pass and before the joins (capture traces there); the instance's
    fault control is shut down after it.  [domains] < [workers]
    oversubscribes and [supervise] recovers and respawns dead workers,
    reported in [result.recoveries] (see {!Soak.run}); parked workers do
    not heartbeat, so keep [heartbeat_timeout] above the rotation
    period when combining the two. *)
val run :
  ?mix:Workload.mix ->
  ?skew:Workload.skew ->
  ?phases:Workload.phase list ->
  ?seed:int ->
  ?config:Smr.Smr_intf.config ->
  ?sample_every:float ->
  ?check:bool ->
  ?measure_latency:bool ->
  ?recorders:Metrics.recorder array ->
  ?workers:int ->
  ?domains:int ->
  ?supervise:Supervisor.config ->
  ?prepare:(Instance.t -> unit) ->
  ?finish:(Instance.t -> unit) ->
  builder:Instance.builder ->
  scheme:Smr.Registry.scheme ->
  threads:int ->
  range:int ->
  duration:float ->
  unit ->
  result
