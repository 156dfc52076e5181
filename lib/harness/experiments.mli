(** Experiment definitions: one entry per table/figure of the paper's
    evaluation (Section 5), plus the ablations and extensions from
    DESIGN.md.  Each prints a paper-shaped table and returns its runs. *)

type cfg = {
  threads : int list; (** paper: 1..384; scaled for this host *)
  duration : float; (** seconds per run; paper: 10 *)
  repeats : int; (** paper: 5, median reported *)
  fig12_range : int; (** paper: 50,000,000; scaled default 1,000,000 *)
}

val default_cfg : cfg
val quick_cfg : cfg

val median_by : ('a -> float) -> 'a list -> 'a
(** The element with median [key]; for an even count the lower-middle
    element is taken (consistently), avoiding the upward bias of
    upper-middle.  Raises [Invalid_argument] on an empty list. *)

val median_result : Runner.result list -> Runner.result
(** [median_by] throughput. *)

val paired_median :
  pairs:int -> ratio:('a * 'b -> float) -> (unit -> 'a) -> (unit -> 'b) ->
  ('a * 'b) list * ('a * 'b) * float
(** [paired_median ~pairs ~ratio a b] runs [pairs] interleaved rounds of
    one [a] and one [b], alternating which side runs first, and returns
    every round, the median round by [ratio], and that median ratio.  The
    one method for scoring a throughput ratio on a noisy host (the
    clean-run floor, [serve --mode both]). *)

val cfg_meta : cfg -> (string * Json.t) list
(** The ["config"] metadata pair embedded in BENCH artifacts. *)

(** Figure 8: HMList vs HList throughput at one key range (512 / 10,000),
    followed by Figure 10's unreclaimed-object table of the same runs. *)
val fig8 : cfg -> range:int -> Runner.result list

(** Figure 9: NMTree throughput at one key range (128 / 100,000),
    followed by Figure 11's unreclaimed-object table of the same runs. *)
val fig9 : cfg -> range:int -> Runner.result list

(** Figure 12: NMTree at a cache-exceeding range (cfg.fig12_range),
    throughput then unreclaimed objects. *)
val fig12 : cfg -> Runner.result list

(** Table 1: the compatibility matrix, demonstrated empirically via the
    use-after-free detector; returns the printed rows. *)
val table1 :
  ?threads:int -> ?duration:float -> unit -> string list list

(** Table 2: restart statistics under HP (paper configuration plus a
    high-contention panel; see the implementation comment). *)
val table2 : cfg -> Runner.result list

(** §3.2.1 ablation: recovery optimisation on/off. *)
val ablation_recovery : cfg -> Runner.result list

(** §3.4 ablation: wait-free vs lock-free traversals. *)
val ablation_wf : cfg -> Runner.result list

(** Extension: SCOT skip list vs Herlihy-Shavit eager searches. *)
val fig_skiplist : cfg -> Runner.result list

(** §5's other workload mixes (90/5/5 and 50i/50d). *)
val mixes : cfg -> Runner.result list

(** {2 Chaos: fault-injection validation and fuzzing} *)

type chaos_run = {
  c_structure : string;
  c_scheme : string;
  c_robust : bool;
  c_threads : int;  (** total participants, workers + stalled *)
  c_workers : int;
  c_stalled : int;
  c_point : string;
  c_range : int;
  c_duration : float;
  c_ops : int;
  c_throughput : float;
  c_bound : int option;
      (** {!Chaos.mem_bound} ceiling; [None] for non-robust schemes *)
  c_max_unreclaimed : int;
  c_first_third : float;
  c_last_third : float;
      (** mean unreclaimed over the first/last third of samples *)
  c_post_quiesced : int;
      (** gauge after the run, once the stalled participants are released
          and every tid is quiesced *)
  c_ok : bool;
      (** robust: stayed under [c_bound]; non-robust: clear growth *)
  c_verdict : string;
      (** ["ok"], or the failed check with its numbers:
          ["BOUND EXCEEDED:max=..>bound=.."] or
          ["NO GROWTH:last=..<=limit=.."] *)
  c_mem_series : Metrics.mem_sample list;
  c_trace : string list; (** injection events, trigger order *)
}

(** One validated run: [stalled] participants park at [point] while the
    remaining workers churn; see {!chaos_run} for the verdict. *)
val chaos :
  ?structure:string ->
  ?threads:int ->
  ?stalled:int ->
  ?point:string ->
  ?range:int ->
  ?duration:float ->
  ?config:Smr.Smr_intf.config ->
  scheme:Smr.Registry.scheme ->
  unit ->
  chaos_run

(** Every scheme at each thread count (default 2 and 4) with one stalled
    participant; prints the verdict table and returns the runs.  Raises
    [Invalid_argument] before printing anything when [range] is not
    positive. *)
val chaos_matrix :
  ?structure:string ->
  ?threads_list:int list ->
  ?stalled:int ->
  ?point:string ->
  ?range:int ->
  ?duration:float ->
  ?schemes:Smr.Registry.scheme list ->
  unit ->
  chaos_run list

val chaos_run_json : chaos_run -> Json.t
(** ["kind": "chaos"] run entry for {!Report.write_bench_doc}. *)

(** {2 Clean-run throughput floor} *)

type floor_run = {
  fl_structure : string;
  fl_scheme : string;  (** the scheme under test (DBR) *)
  fl_threads : int;
  fl_range : int;
  fl_duration : float;
  fl_throughput : float;  (** of the median pair *)
  fl_ebr_throughput : float;  (** of the median pair *)
  fl_ratio : float;  (** median of the per-pair scheme / EBR ratios *)
  fl_ok : bool;  (** ratio >= 0.9 *)
}

(** Clean (no-fault) runs of [scheme] and EBR on the same workload, as
    five interleaved pairs scored by {!paired_median}; the
    acceptance criterion for a scheme that adds stall machinery (DBR's
    neutralization checkpoints) is staying within 10% of EBR's throughput
    when no straggler exercises it.  Prints the median pair's two-row
    table and returns the verdict. *)
val clean_floor :
  ?structure:string ->
  ?threads:int ->
  ?range:int ->
  ?duration:float ->
  scheme:Smr.Registry.scheme ->
  unit ->
  floor_run

val floor_run_json : floor_run -> Json.t
(** ["kind": "floor"] run entry for {!Report.write_bench_doc}. *)

(** {2 Stall comparison: neutralization vs era/interval tracking} *)

(** The DBR headline artifact: the same one-stalled-reader chaos run for a
    panel of schemes (default DBR, EBR, IBR) side by side — DBR's gauge
    flattens once neutralization delivers, EBR's grows, IBR bounds it
    with per-era tracking.  [matrix] holds runs already made at the same
    [duration] (the {!chaos_matrix} output): a panel scheme found there
    with the same structure, [threads], [stalled], [point] and [range] is
    reused instead of run again.  Returns the chaos runs in panel
    order. *)
val stall_comparison :
  ?structure:string ->
  ?threads:int ->
  ?stalled:int ->
  ?point:string ->
  ?range:int ->
  ?duration:float ->
  ?schemes:string list ->
  matrix:chaos_run list ->
  unit ->
  chaos_run list

val stall_cmp_json :
  structure:string ->
  threads:int ->
  stalled:int ->
  point:string ->
  range:int ->
  duration:float ->
  chaos_run list ->
  Json.t
(** ["kind": "stall_cmp"] entry for {!Report.write_bench_doc}. *)

(** {2 Self-tuning reclamation thresholds} *)

type tune_run = {
  tn_mode : string;  (** ["static"], ["oracle"] or ["adaptive"] *)
  tn_threshold : int;
      (** the static limbo threshold, or the adaptive starting point *)
  tn_tuned : int;
      (** the controller's final threshold ([= tn_threshold] if static) *)
  tn_run : Runner.result;
  tn_speedup : float option;
      (** adaptive only: throughput over the best static whose peak
          unreclaimed gauge stayed within 1.1x of the adaptive run's *)
}

(** IBR on the SkipList, 3 domains, a churn/read/drain phase cycle, and one
    participant stalled mid-traversal for the first 60% of each run: one
    run per static threshold in [statics] (default 16, 64, 256, 1024), per
    hindsight threshold in [oracles] (default 4096, 8192; reported, never
    scored), then the adaptive controller from 16 (bounds 16-65536).
    [duration] defaults to 2 s per run, [range] to 8192.  Prints the panel
    and returns the runs in that order.  Raises [Invalid_argument] when
    [statics] is empty. *)
val tune :
  ?duration:float ->
  ?range:int ->
  ?statics:int list ->
  ?oracles:int list ->
  unit ->
  tune_run list

val tune_run_json : tune_run -> Json.t
(** ["kind": "tune"] run entry for {!Report.write_bench_doc}. *)

(** {2 Recovery: supervised crash-and-adopt validation} *)

type recover_run = {
  rc_structure : string;
  rc_scheme : string;
  rc_robust : bool;
  rc_recoverable : bool;  (** [capabilities.recoverable] *)
  rc_threads : int;
  rc_crashed : int;  (** workers crashed mid-traversal *)
  rc_range : int;
  rc_duration : float;
  rc_ops : int;
  rc_throughput : float;
  rc_recoveries : int;  (** supervised recoveries observed *)
  rc_events : Metrics.recovery_event list;
  rc_peak_bound : int option;
      (** {!Chaos.mem_bound} with [stalled = crashed, adopted = crashed]:
          the ceiling while a crash is still unrecovered *)
  rc_post_bound : int option;
      (** the tighter [stalled = 0, adopted = crashed] ceiling that must
          hold once the orphans are adopted *)
  rc_max_unreclaimed : int;
  rc_post_max : int;  (** gauge peak after the last recovery *)
  rc_post_quiesced : int;  (** gauge after the post-run quiesce *)
  rc_recovery_s : float;
      (** last recovery completed, seconds since release *)
  rc_settle_s : float;
      (** first post-recovery sample under [rc_post_bound]; [-1.] when it
          never settled *)
  rc_warnings : int;
      (** adoption warnings the harness synthesized — one per adoption on
          a scheme whose [capabilities.recoverable] is false (NR) *)
  rc_warning_msgs : string list;
      (** the synthesized messages, in adoption order; routed through
          {!Report.note} by {!recover_matrix} *)
  rc_ok : bool;
  rc_verdict : string;
      (** the success label, or the first failed check as
          [NAME:numbers], e.g. ["PEAK BOUND EXCEEDED:max=..>bound=.."] *)
  rc_checks : Soak.check list;  (** every check, in verdict order *)
  rc_mem_series : Metrics.mem_sample list;
  rc_trace : string list;
}

(** One validated crash-recovery run: crash the top [crashed] worker tids
    mid-traversal (protection published, no [end_op]) under a supervised
    runner and check the gauge against the recovery claims — robust
    schemes return under the adoption bound within one sweep, EBR stops
    growing once the dead reservation is deactivated, NR respawns and the
    harness warns that adoption cannot bound its memory. *)
val recover :
  ?structure:string ->
  ?threads:int ->
  ?crashed:int ->
  ?range:int ->
  ?duration:float ->
  ?config:Smr.Smr_intf.config ->
  scheme:Smr.Registry.scheme ->
  unit ->
  recover_run

(** Every scheme at each thread count (default 2 and 4) with one crashed
    worker; prints the verdict table and returns the runs.  Raises
    [Invalid_argument] before printing anything unless [crashed] is in
    [[1, threads)] for every thread count and [range] is positive. *)
val recover_matrix :
  ?structure:string ->
  ?threads_list:int list ->
  ?crashed:int ->
  ?range:int ->
  ?duration:float ->
  unit ->
  recover_run list

val recover_run_json : recover_run -> Json.t
(** ["kind": "recovery"] run entry for {!Report.write_bench_doc}. *)

type fuzz_result = {
  fz_structure : string;
  fz_scheme : string;
  fz_seeds : int;
  fz_uaf_seed : int option;
  fz_trace : string list;
}

(** Seeded random schedules (stalls and crashes on worker tids) under
    aggressive reclamation until a use-after-free fires or [budget_s]
    expires.  Finds a fault on HListUnsafe within seconds; must never on
    the SCOT-enabled structures. *)
val fuzz :
  ?structure:string ->
  ?threads:int ->
  ?budget_s:float ->
  ?duration:float ->
  scheme:Smr.Registry.scheme ->
  unit ->
  fuzz_result

val fuzz_result_json : fuzz_result -> Json.t

val fuzz_once :
  builder:Instance.builder ->
  scheme:Smr.Registry.scheme ->
  threads:int ->
  duration:float ->
  seed:int ->
  unit ->
  bool * string list
(** One seeded {!Chaos.random_schedule} run under aggressive reclamation;
    [(use_after_free_fired, trace)].  Exposed for the property-based
    tests. *)

(** Run everything in paper order and return the BENCH rows of every
    run: the sweeps' {!Report.result_json} entries, then the stalled-thread
    chaos matrix (every scheme, 4 domains, one parked mid-traversal).
    Table 1 prints only.  Table 2 runs under [table2], every other
    experiment under [cfg]. *)
val run_all : table2:cfg -> cfg -> Json.t list
