(** The [scotbench serve] soak: a timed service-tier run over a sharded
    {!Store} on the {!Harness.Soak} engine, with its supervisor and chaos
    engine live.

    Running the same {!cfg} in both {!mode}s measures what the batched
    dispatch buys: [Per_op] takes one SMR bracket per request, [Batched]
    groups requests by destination shard and enters one bracket per
    group, at the same configured memory ceiling (identical scheme
    config). *)

type mode = Batched | Per_op

val mode_name : mode -> string
val mode_of_string : string -> mode option

type cfg = {
  sv_backend : Shard.backend;
  sv_scheme : Smr.Registry.scheme;
  sv_shards : int;
  sv_threads : int;  (** worker domains = store clients *)
  sv_range : int;
  sv_duration : float;
  sv_batch_capacity : int;
  sv_buckets : int;
  sv_mix : Harness.Workload.mix;
  sv_skew : Harness.Workload.skew;
  sv_phases : Harness.Workload.phase list;
  sv_seed : int;
  sv_ttl_pct : int;  (** % of puts carrying a TTL *)
  sv_ttl_s : float;
  sv_crash : int;
      (** top worker tids armed to crash at a protected-load probe
          mid-run; the supervisor recovers and respawns them *)
}

val default_cfg : unit -> cfg
(** HLN over a 256-bucket hashmap backend, 4 shards x 4 threads,
    zipf:0.99, 1 s — the acceptance shape. *)

type shard_row = {
  sr_shard : int;
  sr_ops : int;  (** completed requests against this shard *)
  sr_hits : int;
  sr_throughput : float;
}

type result = {
  r_mode : mode;
  r_ops : int;
      (** requests completed inside the measurement window ([Batched]
          counts at delivery, so the post-stop drain of queued tails is
          excluded — same denominator as [Per_op]) *)
  r_duration : float;
  r_throughput : float;
  r_per_shard : shard_row list;
  r_occupancy : (int * int) list;  (** flush size -> count *)
  r_expired : int;
  r_mem_series : Harness.Metrics.mem_sample list;
  r_max_unreclaimed : int;
  r_op_stats : Harness.Metrics.op_stats list;
  r_crashes : int;
  r_recoveries : Harness.Metrics.recovery_event list;
  r_post_quiesced : int;
  r_bound : int option;  (** summed robust ceiling; [None] if not robust *)
  r_final_size : int;
  r_ok : bool;
  r_verdict : string;
      (** ["ok"], or the first failed verdict: ["uaf:<n>"],
          ["missing-recovery:..."],
          ["abandoned"], ["gauge-over-bound:..."],
          ["invariants-failed"] *)
}

val soak_target :
  Store.t -> threads:int -> range:int -> seed:int -> Harness.Soak.target
(** Prefill half of [range] through the shards, bypassing the stats so
    they count served requests only, and wrap the store as a soak target
    (recovery adopts the tid on every shard) over [threads] tids. *)

val invariants_hold : Store.t -> bool
(** {!Store.check_invariants}, as a verdict instead of an exception. *)

val run : cfg -> mode -> result
(** One soak.  Raises [Invalid_argument] when [sv_crash] is not in
    [0, threads) or [sv_ttl_pct] outside [0, 100]. *)

val result_json : ?speedup:float -> cfg -> result -> Harness.Json.t
(** One schema-v1 ["kind": "serve"] run row; [speedup] (batched
    throughput over per-op) is attached by callers that ran both
    modes. *)
