(* The `scotbench pressure` soak (roles and verdicts: see the mli): a
   [Harness.Soak] run whose per-sample hook drives three phases.

   - [clean]: all workers run; the readers' baseline throughput.
   - [ramp]: the extras are parked MID-READ — reservations published,
     announcements pinned, exactly what a preempted thread looks like to
     the SMR scheme — while the writers churn.  A robust scheme's limbo
     plateaus under its stalled-k ceiling, typically far above the
     operator budget, so the shards walk into Degraded and admission
     sheds writes; a non-robust scheme's grows without bound.
   - [drain]: the extras are released and joined; the gauge falls and
     the state machines descend (hysteretically) back to Healthy. *)

open Harness

type cfg = {
  pv_scheme : Smr.Registry.scheme;
  pv_workers : int;  (* worker domains = store clients *)
  pv_domains : int;  (* runnable during ramp; extras park *)
  pv_readers : int;  (* dedicated reader tids [0, readers) *)
  pv_range : int;
  pv_clean_s : float;
  pv_ramp_s : float;
  pv_drain_s : float;
}

let default_cfg () =
  {
    pv_scheme = Smr.Registry.find_exn "IBR";
    pv_workers = 6;
    pv_domains = 4;
    pv_readers = 2;
    pv_range = 2048;
    pv_clean_s = 0.4;
    pv_ramp_s = 0.8;
    pv_drain_s = 0.6;
  }

(* The fixed shape of every pressure run. *)
let shards = 2
let deadline_s = 0.05 (* per-request write deadline *)
let ttl_pct = 25 (* % of puts carrying a TTL *)
let ttl_s = 0.05
let seed = 0xC0FFEE

type result = {
  r_enforce : bool;
  r_parked : int;  (* extras that actually parked during ramp *)
  r_ops : int;
  r_duration : float;
  r_throughput : float;
  r_read_clean_tp : float;  (* dedicated readers, clean phase *)
  r_read_degraded_tp : float;  (* dedicated readers, ramp phase *)
  r_read_live_ratio : float;  (* degraded / clean *)
  r_accepted : int;  (* writes admitted *)
  r_gave_up : int;  (* retry budget exhausted on [`Overload] *)
  r_shed_ttl : int;
  r_shed_all : int;
  r_deadline_rejects : int;  (* terminal [`Deadline_exceeded] outcomes *)
  r_retries : int;
  r_expired : int;
  r_max_unreclaimed : int;
  r_post_quiesced : int;
  r_budget : int;  (* summed per-shard budgets *)
  r_bound : int option;  (* scheme's own ceiling at stalled:parked *)
  r_stall_bound : int;  (* reference ceiling at stalled:parked *)
  r_nostall_bound : int;  (* reference ceiling at stalled:0 *)
  r_max_level : Pressure.level;
  r_recovered : bool;  (* every shard left Degraded_* during drain *)
  r_transitions : (int * Pressure.transition) list;  (* (shard, tr) *)
  r_mem_series : Metrics.mem_sample list;
  r_faults : int;
  r_final_size : int;
  r_ok : bool;
  r_verdict : string;
}

(* Per-shard group size at which the writers' deferred requests flush. *)
let batch_capacity = 32

let run cfg =
  if cfg.pv_readers < 1 then
    invalid_arg "Overload.run: need at least one reader";
  if cfg.pv_domains <= cfg.pv_readers then
    invalid_arg "Overload.run: need at least one writer (domains > readers)";
  if cfg.pv_workers <= cfg.pv_domains then
    invalid_arg
      "Overload.run: need at least one oversubscribed extra (workers > \
       domains)";
  if cfg.pv_clean_s <= 0.0 || cfg.pv_ramp_s <= 0.0 || cfg.pv_drain_s <= 0.0 then
    invalid_arg "Overload.run: phase durations must be positive";
  (* One extra client slot past the workers: the coordinator owns it and
     uses it for the synchronous sweeps [observe_pressure] runs on
     pressured shards (worker handles are single-owner, so the
     coordinator must never touch them). *)
  let sweeper = cfg.pv_workers in
  (* A neutralizing scheme (DBR) needs a wider neutralization window
     here: the parked extras sit at a read probe, so with the default
     [neutralize_after] their announcements are delivered almost
     immediately and the scheme never builds enough limbo to exercise
     the state machine. *)
  let config =
    if (Smr.Registry.capabilities cfg.pv_scheme).Smr.Smr_intf.neutralizing
    then
      Some
        (Smr.Smr_intf.make_config ~threads:(sweeper + 1) ~neutralize_after:64
           ())
    else None
  in
  let store =
    Store.create ?config ~batch_capacity ~backend:Shard.Hashmap
      ~scheme:cfg.pv_scheme ~shards ~threads:(sweeper + 1) ()
  in
  let stats = Store.stats store in
  (* The store sheds only if the scheme is robust (see
     [Store.arm_pressure]); the verdicts and the row follow the same
     value. *)
  let enforce = Store.robust store in
  (* Arm the pressure state machines.  The budget is the operator's
     envelope, so it must NOT depend on the scheme under test (DBR's own
     ceiling carries huge neutralization-latency terms that would hand
     it a 10x looser budget than IBR's on the same hardware): every
     scheme is budgeted against what the reference robust scheme (IBR)
     promises at this config with NO stalled readers — one thread's
     share of it.  That bound is a ceiling, not a plateau: it lets every
     registered tid hold a full buffer plus its era lag at once, while
     here only the writers retire and each one's buffer sweeps itself
     back down whenever it fills, so a running shard's median gauge
     sits well inside one tid's share (OS-preemption spikes aside, see
     below).  A parked reader pins what was live when it parked, which
     lifts the ramp's gauge through the share into Degraded. *)
  let ibr = Smr.Registry.find_exn "IBR" in
  let budgets =
    Array.init shards (fun s ->
        let sh = Store.shard store s in
        (* IBR is robust, so its bound is always [Some]. *)
        let ref_b =
          Option.get
            (Chaos.mem_bound ibr ~config:sh.Shard.config
               ~threads:sh.Shard.threads ~slots:sh.Shard.slots
               ~range:cfg.pv_range ~stalled:0 ())
        in
        max 1 (ref_b / sh.Shard.threads))
  in
  (* quiesce_samples 2 (default 3): on oversubscribed hosts the raw
     gauge carries OS-preemption pinning spikes (a writer preempted
     mid-bracket pins ~a scheduler quantum of retires), so long runs of
     consecutive calm samples are rare; two is enough dwell to stop
     admission flapping while letting a recovering shard actually find a
     window to descend through. *)
  Store.arm_pressure store
    (Array.map
       (fun b -> Pressure.make_config ~budget:b ~quiesce_samples:2 ())
       budgets);
  (* [pv_workers + 1] quiesced tids: the coordinator's sweeper slot too. *)
  let target =
    Serve.soak_target store ~threads:(cfg.pv_workers + 1) ~range:cfg.pv_range
      ~seed
  in
  (* Installed for the whole run, not only from the ramp on, so the clean
     baseline pays the same probe cost as the degraded window it scores. *)
  ignore (target.engine ());
  let extras =
    List.init (cfg.pv_workers - cfg.pv_domains) (fun i -> cfg.pv_domains + i)
  in
  (* reads.(phase).(tid): single-writer cells, read after join; the
     published phase index is 0 = clean, 1 = ramp, 2 = drain. *)
  let reads = Array.init 3 (fun _ -> Array.make cfg.pv_workers 0) in
  let accepted = Array.make cfg.pv_workers 0 in
  let gave_up = Array.make cfg.pv_workers 0 in
  let deadlined = Array.make cfg.pv_workers 0 in
  let reader_loop (w : Soak.worker) =
    let tid = w.tid and stop = w.stop and phase = w.phase in
    let extra = tid >= cfg.pv_domains in
    let rng = Workload.Rng.create ~seed:(seed + (31 * (tid + 1))) in
    let sampler = Workload.sampler Workload.Uniform ~range:cfg.pv_range in
    let client = Store.client store ~tid in
    (* Extras retire from service at drain entry: they are ramp
       instruments, and exiting (rather than looping on) both frees a
       domain on oversubscribed hosts and guarantees their reservation
       is withdrawn for good — a resumed extra that merely keeps reading
       can sit unscheduled for hundreds of ms on a loaded single-core
       host with its mid-bracket reservation still pinning the limbo. *)
    fun () ->
      while not (Atomic.get stop) && not (extra && Atomic.get phase >= 2) do
        let key = Workload.draw sampler rng in
        ignore (Store.get client key);
        let ph = Atomic.get phase in
        reads.(ph).(tid) <- reads.(ph).(tid) + 1
      done
  in
  let writer_loop (w : Soak.worker) =
    let tid = w.tid and stop = w.stop in
    let rng = Workload.Rng.create ~seed:(seed + (31 * (tid + 1))) in
    let sampler = Workload.sampler Workload.Uniform ~range:cfg.pv_range in
    (* The client's default clock is [Clock.now], so the store's deadline
       check and [Backoff] read the same monotonic time. *)
    let client = Store.client store ~tid in
    fun () ->
      while not (Atomic.get stop) do
        let key = Workload.draw sampler rng in
        let is_put = Workload.Rng.int rng 2 = 0 in
        let ttl_s =
          if
            is_put && Workload.Rng.int rng 100 < ttl_pct
          then Some ttl_s
          else None
        in
        let dl = Clock.now () +. deadline_s in
        let attempt () : unit Backoff.outcome =
          match
            if is_put then Store.enqueue_put ?ttl_s ~deadline:dl client key
            else Store.enqueue_delete ~deadline:dl client key
          with
          | `Queued -> `Done ()
          | (`Overload | `Deadline_exceeded) as refused -> refused
        in
        match
          Backoff.run Backoff.default_policy ~rng ~now:Clock.now ~sleep:Unix.sleepf
            ~deadline:dl
            ~on_retry:(fun ~attempt:_ -> Stats.record_retry stats ~tid)
            attempt
        with
        | `Done () -> accepted.(tid) <- accepted.(tid) + 1
        | `Overload -> gave_up.(tid) <- gave_up.(tid) + 1
        | `Deadline_exceeded -> deadlined.(tid) <- deadlined.(tid) + 1
      done;
      (* Drain the queued tail (teardown, not measured work). *)
      Store.flush client
  in
  let body (w : Soak.worker) =
    if w.tid >= cfg.pv_readers && w.tid < cfg.pv_domains then writer_loop w
    else reader_loop w
  in
  let parked_k = ref 0 in
  (* recovered_seen.(s): shard [s] was observed below [Degraded_ttl]
     (i.e. it stopped shedding writes) during the drain phase, with the
     workers still serving.  The recovery verdict reads these rather
     than the instantaneous level at stop: on an oversubscribed host the
     gauge carries OS-preemption pinning noise that brushes [Pressured]
     (and occasionally a Degraded blip) in steady state, so demanding
     [Healthy] at the stop instant is a coin flip.  Service recovery —
     writes admitted again under continuing load — is the property the
     run scores here; memory recovery is scored separately by the
     deterministic post-quiesce bound check. *)
  let recovered_seen = Array.make shards false in
  (* The worst shard level observed while the ramp phase ran: the
     degradation verdict scores the window the parked extras pin, not a
     clean-phase preemption spike. *)
  let ramp_max = ref Pressure.Healthy in
  let ramp_t = ref 0.0 in
  let drain_t = ref 0.0 in
  let on_sample ctl ~now =
    if Soak.phase ctl = 0 && now >= cfg.pv_clean_s then begin
      Soak.set_phase ctl 1;
      ramp_t := now;
      (* Park every extra at its next protected-load crossing: pinned
         announcement, published reservation — a preempted reader. *)
      parked_k := Soak.park ctl ~tids:extras
    end;
    if Soak.phase ctl = 1 && now >= cfg.pv_clean_s +. cfg.pv_ramp_s then begin
      Soak.set_phase ctl 2;
      Soak.release ctl ~tids:extras;
      (* Join the extras before the drain clock starts: a resumed
         extra exits its loop, but until the OS actually schedules it
         to finish the in-flight bracket its published reservation
         keeps pinning the limbo — on an oversubscribed host that can
         take hundreds of ms, nondeterministically eating the drain
         window.  Blocking here is the deterministic fix (and frees
         this core for the woken extra); the drain deadline is then
         re-based so every run gets a full pin-free drain.  The mem
         series has a corresponding gap, never a missed peak: the
         peak is a ramp-phase event. *)
      List.iter (fun tid -> Soak.join ctl ~tid) extras;
      drain_t := Soak.now ctl;
      Soak.set_until ctl (!drain_t +. cfg.pv_drain_s)
    end;
    ignore
      (Store.observe_pressure ~sweep_tid:sweeper store ~now:(Soak.now ctl));
    for s = 0 to shards - 1 do
      let level = Store.shard_level store s in
      let rank = Pressure.level_rank level in
      match Soak.phase ctl with
      | 1 when rank > Pressure.level_rank !ramp_max -> ramp_max := level
      | 2 when rank < Pressure.level_rank Pressure.Degraded_ttl ->
          recovered_seen.(s) <- true
      | _ -> ()
    done
  in
  (* If the drain transition never ran (degenerate phase durations vs
     the sample period), the target shutdown wakes the parked extras. *)
  let o =
    Soak.run ~on_sample target
      ~workers:cfg.pv_workers
      ~duration:(cfg.pv_clean_s +. cfg.pv_ramp_s +. cfg.pv_drain_s)
      body
  in
  let elapsed = o.elapsed in
  let post_quiesced = Store.unreclaimed store in
  let max_unr = o.max_unreclaimed in
  let k = !parked_k in
  let stall_bound =
    Store.ref_mem_bound store ~range:cfg.pv_range ~stalled:k ()
  in
  let nostall_bound =
    Store.ref_mem_bound store ~range:cfg.pv_range ~stalled:0 ()
  in
  let bound = Store.mem_bound store ~range:cfg.pv_range ~stalled:k () in
  let rank = Pressure.level_rank in
  let shard_ids = List.init shards Fun.id in
  let recovered =
    List.for_all
      (fun s ->
        recovered_seen.(s)
        || rank (Store.shard_level store s) < rank Pressure.Degraded_ttl)
      shard_ids
  in
  let max_level =
    List.fold_left
      (fun worst s ->
        match Store.pressure store s with
        | Some p when rank (Pressure.max_level p) > rank worst ->
            Pressure.max_level p
        | _ -> worst)
      Pressure.Healthy shard_ids
  in
  let transitions =
    List.concat
      (List.init shards (fun s ->
           match Store.pressure store s with
           | Some p -> List.map (fun tr -> (s, tr)) (Pressure.transitions p)
           | None -> []))
  in
  (* Dedicated readers' phase throughput: clean is the baseline, ramp is
     the degraded window the liveness verdict scores. *)
  let phase_reads ph =
    Array.fold_left ( + ) 0 (Array.sub reads.(ph) 0 cfg.pv_readers)
  in
  let clean_d = if !ramp_t > 0.0 then !ramp_t else cfg.pv_clean_s in
  let ramp_d =
    if !drain_t > !ramp_t && !ramp_t > 0.0 then !drain_t -. !ramp_t
    else cfg.pv_ramp_s
  in
  let read_clean_tp = float_of_int (phase_reads 0) /. clean_d in
  let read_degraded_tp = float_of_int (phase_reads 1) /. ramp_d in
  let read_live_ratio =
    if read_clean_tp > 0.0 then read_degraded_tp /. read_clean_tp else 0.0
  in
  let total_faults = o.faults in
  let shed_ttl = Stats.shed_ttl_total stats in
  let shed_all = Stats.shed_write_total stats in
  let post_gauge =
    Soak.check "post-gauge" (post_quiesced <= nostall_bound)
      ~detail:(Printf.sprintf "%d>%d" post_quiesced nostall_bound)
  in
  let verdict =
    Soak.verdict
      (Soak.check "uaf" (total_faults = 0) ~detail:(string_of_int total_faults)
       :: Soak.check "invariants-failed" (Serve.invariants_hold store)
       :: Soak.check "no-extras-parked" (k > 0)
       ::
       (if enforce then
          [
            Soak.check "no-degrade"
              (rank !ramp_max >= rank Degraded_ttl)
              ~detail:("ramp_max=" ^ Pressure.level_name !ramp_max);
            Soak.check "no-shed" (shed_ttl + shed_all > 0);
            Soak.check "not-recovered" recovered;
            Soak.check "reads-stalled" (read_live_ratio >= 0.5)
              ~detail:(Printf.sprintf "%.2f" read_live_ratio);
            Soak.check "over-stall-bound" (max_unr <= stall_bound)
              ~detail:(Printf.sprintf "%d>%d" max_unr stall_bound);
            post_gauge;
          ]
        else
          (* Negative control: the gauge must escape the reference robust
             ceiling while the stall lasts, but once it clears even EBR
             must drain. *)
          [
            Soak.check "expected-overflow-missing" (max_unr > stall_bound)
              ~detail:(Printf.sprintf "%d<=%d" max_unr stall_bound);
            post_gauge;
          ]))
  in
  {
    r_enforce = enforce;
    r_parked = k;
    r_ops = Stats.total_ops stats;
    r_duration = elapsed;
    r_throughput = float_of_int (Stats.total_ops stats) /. elapsed;
    r_read_clean_tp = read_clean_tp;
    r_read_degraded_tp = read_degraded_tp;
    r_read_live_ratio = read_live_ratio;
    r_accepted = Array.fold_left ( + ) 0 accepted;
    r_gave_up = Array.fold_left ( + ) 0 gave_up;
    r_shed_ttl = shed_ttl;
    r_shed_all = shed_all;
    r_deadline_rejects = Array.fold_left ( + ) 0 deadlined;
    r_retries = Stats.retry_total stats;
    r_expired = Stats.expired_total stats;
    r_max_unreclaimed = max_unr;
    r_post_quiesced = post_quiesced;
    r_budget = Array.fold_left ( + ) 0 budgets;
    r_bound = bound;
    r_stall_bound = stall_bound;
    r_nostall_bound = nostall_bound;
    r_max_level = max_level;
    r_recovered = recovered;
    r_transitions = transitions;
    r_mem_series = o.mem_series;
    r_faults = total_faults;
    r_final_size = Store.size store;
    r_ok = verdict = "ok";
    r_verdict = verdict;
  }

(* {2 Artifact rows} *)

let result_json cfg (r : result) =
  let open Json in
  let transition (s, (tr : Pressure.transition)) =
    Obj
      [
        ("shard", Int s);
        ("t", Float tr.tr_t);
        ("from", String (Pressure.level_name tr.tr_from));
        ("to", String (Pressure.level_name tr.tr_to));
        ("ratio", Float tr.tr_ratio);
      ]
  in
  Obj
    [
      ("kind", String "pressure");
      ("backend", String (Shard.backend_name Shard.Hashmap));
      ( "scheme",
        let (module S : Smr.Smr_intf.S) = cfg.pv_scheme in
        String S.name );
      ( "robust",
        let (module S : Smr.Smr_intf.S) = cfg.pv_scheme in
        Bool S.capabilities.robust );
      ("enforce", Bool r.r_enforce);
      ("shards", Int shards);
      ("workers", Int cfg.pv_workers);
      ("domains", Int cfg.pv_domains);
      ("parked", Int r.r_parked);
      ("readers", Int cfg.pv_readers);
      ("range", Int cfg.pv_range);
      ("batch_capacity", Int batch_capacity);
      ("clean_s", Float cfg.pv_clean_s);
      ("ramp_s", Float cfg.pv_ramp_s);
      ("drain_s", Float cfg.pv_drain_s);
      ("deadline_s", Float deadline_s);
      ("budget", Int r.r_budget);
      ("bound", match r.r_bound with Some b -> Int b | None -> Null);
      ("stall_bound", Int r.r_stall_bound);
      ("nostall_bound", Int r.r_nostall_bound);
      ("duration", Float r.r_duration);
      ("ops", Int r.r_ops);
      ("throughput", Float r.r_throughput);
      ("read_clean_tp", Float r.r_read_clean_tp);
      ("read_degraded_tp", Float r.r_read_degraded_tp);
      ("read_live_ratio", Float r.r_read_live_ratio);
      ("accepted", Int r.r_accepted);
      ("gave_up", Int r.r_gave_up);
      ("shed_ttl", Int r.r_shed_ttl);
      ("shed_all", Int r.r_shed_all);
      ("shed", Int (r.r_shed_ttl + r.r_shed_all));
      ("deadline_rejects", Int r.r_deadline_rejects);
      ("retries", Int r.r_retries);
      ("expired", Int r.r_expired);
      ("max_unreclaimed", Int r.r_max_unreclaimed);
      ("post_quiesced", Int r.r_post_quiesced);
      ("max_level", String (Pressure.level_name r.r_max_level));
      ("recovered", Bool r.r_recovered);
      ("transitions", List (List.map transition r.r_transitions));
      ("mem_series", List (List.map Metrics.mem_sample_json r.r_mem_series));
      ("faults", Int r.r_faults);
      ("final_size", Int r.r_final_size);
      ("ok", Bool r.r_ok);
      ("verdict", String r.r_verdict);
    ]
