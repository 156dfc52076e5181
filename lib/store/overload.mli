(** The [scotbench pressure] soak: drive a sharded {!Store} past its
    memory budget with deterministically-preempted readers, and score
    graceful degradation and recovery.

    Three phases: [clean] (baseline), [ramp] (the oversubscribed extras
    are parked mid-read with published reservations while writers churn
    — the gauge climbs, the per-shard {!Pressure} machines walk into
    [Degraded_*], admission sheds writes) and [drain] (extras resumed,
    the gauge falls, the machines descend back to [Healthy]).

    Worker roles are fixed: tids [0, readers) only read (never shed —
    their ramp-phase throughput against the clean baseline is the
    read-liveness verdict), tids [readers, domains) only write through
    the store's admission path ({!Store.enqueue_put} /
    {!Store.enqueue_delete}) with per-request deadlines and {!Backoff}
    retries, and tids [domains, workers) read until parked.

    Enforcement follows the scheme: the store is armed to shed writes
    iff the scheme is robust.  A non-robust scheme (EBR) is the
    {e negative control}: pressure is observed but every write is
    admitted, and the verdict {e demands} the gauge exceed the
    reference robust ceiling (the paper's motivating failure) while
    still draining to the no-stall ceiling once the stall clears. *)

type cfg = {
  pv_scheme : Smr.Registry.scheme;
  pv_workers : int;  (** worker domains = store clients *)
  pv_domains : int;
      (** runnable during ramp; tids [pv_domains, pv_workers) park *)
  pv_readers : int;  (** dedicated reader tids [0, pv_readers) *)
  pv_range : int;
  pv_clean_s : float;
  pv_ramp_s : float;
  pv_drain_s : float;  (** all three must be positive *)
}
(** Every run uses 2 hashmap shards, a 0.05 s per-request write
    deadline, a 0.05 s TTL on 25% of puts and one fixed seed.  Each
    shard's pressure budget is one thread's share of the no-stall
    ceiling the {e reference} robust scheme (IBR) promises at the
    shard's config — independent of the scheme under test, so every
    panel member is held to the same operator envelope.  A neutralizing
    scheme (DBR) runs with [neutralize_after:64], so that the parked
    extras pin enough limbo to drive the pressure machines. *)

val default_cfg : unit -> cfg
(** IBR, 6 workers on 4 domains (2 dedicated readers, 2 writers, 2
    parking extras), range 2048, 0.4/0.8/0.6 s phases. *)

type result = {
  r_enforce : bool;  (** the store shed writes: the scheme is robust *)
  r_parked : int;  (** extras that actually parked during ramp *)
  r_ops : int;
  r_duration : float;
  r_throughput : float;
  r_read_clean_tp : float;
  r_read_degraded_tp : float;
  r_read_live_ratio : float;  (** degraded / clean; the verdict wants >= 0.5 *)
  r_accepted : int;
  r_gave_up : int;
  r_shed_ttl : int;
  r_shed_all : int;
  r_deadline_rejects : int;
  r_retries : int;
  r_expired : int;
  r_max_unreclaimed : int;
  r_post_quiesced : int;
  r_budget : int;  (** summed per-shard budgets *)
  r_bound : int option;  (** scheme's own ceiling at stalled:parked *)
  r_stall_bound : int;  (** reference ceiling at stalled:parked *)
  r_nostall_bound : int;  (** reference ceiling at stalled:0 *)
  r_max_level : Pressure.level;
  r_recovered : bool;
      (** service recovery: every shard was observed below
          [Degraded_ttl] — i.e. it stopped shedding writes — during the
          drain phase with the workers still serving.  Memory recovery
          is scored separately ([r_post_quiesced] against
          [r_nostall_bound]); the instantaneous level at stop is
          OS-preemption noise on oversubscribed hosts, not signal. *)
  r_transitions : (int * Pressure.transition) list;
  r_mem_series : Harness.Metrics.mem_sample list;
  r_faults : int;
  r_final_size : int;
  r_ok : bool;
  r_verdict : string;
      (** ["ok"], or the first failed verdict.  Enforcing runs:
          ["uaf:..."], ["invariants-failed"], ["no-extras-parked"],
          ["no-degrade:..."], ["no-shed"], ["not-recovered"],
          ["reads-stalled:..."], ["over-stall-bound:..."],
          ["post-gauge:..."].  Monitor-only runs replace the middle
          block with ["expected-overflow-missing:..."]. *)
}

val run : cfg -> result
(** One soak.  [Invalid_argument] unless
    [1 <= readers < domains < workers] and every phase duration is
    positive. *)

val result_json : cfg -> result -> Harness.Json.t
(** One schema-v1 ["kind": "pressure"] run row. *)
