(* Timed multi-domain benchmark runs, mirroring the paper's harness:
   prefill 50% of the key range, then run the op mix on the [Soak] engine
   for a fixed duration while it samples the retired-but-unreclaimed
   gauge with timestamps (the time axis of Figures 10-12).

   Timing: [duration] (the throughput denominator) is the measurement
   window, from releasing the workers to the instant the stop flag is
   raised.  [wall_total] additionally includes [Domain.join] teardown and
   the post-stop drain; using it as the denominator — as an earlier version
   did — deflates throughput by worker-teardown latency.

   Note on scale: the evaluation host of this reproduction exposes a single
   core, so domains interleave preemptively instead of running in parallel;
   see EXPERIMENTS.md for how this affects curve shapes. *)

type result = {
  structure : string;
  scheme : string;
  threads : int;
  range : int;
  mix : Workload.mix;
  ops : int;
  duration : float; (* measurement window: release -> stop flag *)
  wall_total : float; (* full run including Domain.join teardown *)
  throughput : float; (* ops per second, all threads *)
  restarts : int;
  avg_unreclaimed : float;
  max_unreclaimed : int;
  mem_series : Metrics.mem_sample list; (* timestamped, chronological *)
  op_stats : Metrics.op_stats list; (* per-kind counters and latencies *)
  scheme_stats : (string * int) list; (* SMR counters (epoch/era, limbo) *)
  faults : int; (* simulated use-after-free events (unsafe variants only) *)
  final_size : int;
  recoveries : Metrics.recovery_event list; (* supervised runs, chronological *)
}

let run ?(mix = Workload.read_write_50) ?(skew = Workload.Uniform)
    ?(phases = []) ?(seed = 0xC0FFEE) ?config ?(sample_every = 0.01)
    ?(check = true) ?(measure_latency = true) ?workers ?supervise ?prepare
    ?finish ~(builder : Instance.builder) ~(scheme : Smr.Registry.scheme)
    ~threads ~range ~duration () =
  let workers = Option.value workers ~default:threads in
  if workers < 1 || workers > threads then
    invalid_arg "Runner.run: workers must be in [1, threads]";
  let inst = builder.build scheme ~threads ?config () in
  if range >= inst.max_key then
    invalid_arg "Runner.run: key range exceeds the structure's key space";
  (* Prefill 50% of the key range with unique keys (shuffled). *)
  Array.iter
    (fun k -> ignore (inst.insert ~tid:0 k))
    (Workload.prefill_keys ~range ~seed);
  (* Workers read the current mix through the published phase index once
     per op.  With no [phases] the index stays 0 and the single entry is
     [mix].  The hoisted array is indexed unsafely in the hot loop rather
     than calling across the module boundary per op. *)
  let sched = Workload.schedule ~fallback:mix phases in
  let mixes =
    Array.init (Workload.phase_count sched) (Workload.phase_mix sched)
  in
  let recorders = Array.init threads (fun _ -> Metrics.create_recorder ()) in
  (* The two measurement loops are split on [measure_latency] *outside* the
     loop so the steady state is branch-free.  The timed loop pays two
     allocation-free clock reads per op; the untimed loop performs no
     timestamp reads at all and allocates nothing per operation (the op
     dispatch is an inline match, not a closure call). *)
  let body (w : Soak.worker) =
    let tid = w.tid and stop = w.stop and phase = w.phase in
    let beat = w.beat and count = w.ops in
    let rng = Workload.Rng.create ~seed:(seed + (31 * (tid + 1))) in
    let sampler = Workload.sampler skew ~range in
    let recorder = recorders.(tid) in
    fun () ->
      if measure_latency then
        while not (Atomic.get stop) do
          let key = Workload.draw sampler rng in
          let op =
            Workload.op_for rng (Array.unsafe_get mixes (Atomic.get phase))
          in
          let t0 = Clock.ns () in
          let hit =
            match op with
            | Workload.Search -> inst.search ~tid key
            | Workload.Insert -> inst.insert ~tid key
            | Workload.Delete -> inst.delete ~tid key
          in
          let ns = Clock.ns () - t0 in
          let kind =
            match op with
            | Workload.Search -> Metrics.Search
            | Workload.Insert -> Metrics.Insert
            | Workload.Delete -> Metrics.Delete
          in
          Metrics.observe recorder kind ~hit ~ns;
          Atomic.incr beat;
          incr count
        done
      else
        while not (Atomic.get stop) do
          let key = Workload.draw sampler rng in
          (match
             Workload.op_for rng (Array.unsafe_get mixes (Atomic.get phase))
           with
          | Workload.Search ->
              Metrics.count recorder Metrics.Search ~hit:(inst.search ~tid key)
          | Workload.Insert ->
              Metrics.count recorder Metrics.Insert ~hit:(inst.insert ~tid key)
          | Workload.Delete ->
              Metrics.count recorder Metrics.Delete
                ~hit:(inst.delete ~tid key));
          Atomic.incr beat;
          incr count
        done
  in
  (match prepare with Some f -> f inst | None -> ());
  (* Fault-injecting callers capture traces and release their stalled tids
     in [finish]; the instance shutdown after it also covers an engine the
     watchdog created (a second shutdown is a no-op). *)
  let target =
    {
      (Soak.instance_target inst) with
      shutdown =
        (fun () ->
          (match finish with Some f -> f inst | None -> ());
          inst.fault.shutdown ());
    }
  in
  (* [workers] < [threads] reserves the top tids for fault injection: they
     get SMR handles (registered by the builder) but no workload domain. *)
  let o =
    Soak.run ~sample_every ~schedule:sched ?supervise target ~workers ~duration
      body
  in
  if check && o.faults = 0 then inst.check_invariants ();
  {
    structure = inst.structure;
    scheme = inst.scheme;
    threads;
    range;
    mix;
    ops = o.ops;
    duration = o.elapsed;
    wall_total = o.wall_total;
    throughput = float_of_int o.ops /. o.elapsed;
    restarts = inst.restarts ();
    avg_unreclaimed = o.avg_unreclaimed;
    max_unreclaimed = o.max_unreclaimed;
    mem_series = o.mem_series;
    op_stats = Metrics.merge recorders;
    scheme_stats = inst.scheme_stats ();
    faults = o.faults;
    final_size = (if o.faults = 0 then inst.size () else -1);
    recoveries = o.recoveries;
  }
