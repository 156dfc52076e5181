(* The `scotbench serve` soak: a [Harness.Soak] run that drives requests
   through [Store] clients in one of two dispatch modes — [Per_op] (one
   SMR bracket per request, the baseline) or [Batched] (per-shard groups,
   one bracket each).  Both modes share the scheme config, hence the
   memory ceiling, so the pair measures the bracket-entry amortisation.

   Crash soak: [sv_crash] top worker tids crash at a protected-load probe
   mid-run; the supervisor recovers each tid's handle on EVERY shard and
   respawns it with a fresh client (the crashed client's queued requests
   are dropped by design).  The verdict demands every crash recovered,
   the post-quiesce gauge under the summed per-shard robust bound, and
   structural invariants. *)

module B = Scot.Batch_op
open Harness

type mode = Batched | Per_op

let mode_name = function Batched -> "batched" | Per_op -> "per-op"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "batched" -> Some Batched
  | "per-op" | "per_op" | "perop" -> Some Per_op
  | _ -> None

type cfg = {
  sv_backend : Shard.backend;
  sv_scheme : Smr.Registry.scheme;
  sv_shards : int;
  sv_threads : int;
  sv_range : int;
  sv_duration : float;
  sv_batch_capacity : int;
  sv_buckets : int;
  sv_config : Smr.Smr_intf.config option;
  sv_mix : Workload.mix;
  sv_skew : Workload.skew;
  sv_phases : Workload.phase list;
  sv_seed : int;
  sv_ttl_pct : int;  (* % of puts carrying a TTL *)
  sv_ttl_s : float;
  sv_crash : int;  (* top worker tids armed to crash mid-run *)
  sv_domains : int option;  (* runnable cores; < threads oversubscribes *)
  sv_supervise : Supervisor.config;
  sv_sample_every : float;
}

let default_cfg () =
  {
    sv_backend = Shard.Hashmap;
    sv_scheme = Smr.Registry.find_exn "HLN";
    sv_shards = 4;
    sv_threads = 4;
    sv_range = 16384;
    sv_duration = 1.0;
    sv_batch_capacity = 64;
    sv_buckets = 256;
    sv_config = None;
    sv_mix = Workload.read_write_50;
    sv_skew = Workload.Zipf 0.99;
    sv_phases = [];
    sv_seed = 0xC0FFEE;
    sv_ttl_pct = 0;
    sv_ttl_s = 0.05;
    sv_crash = 0;
    sv_domains = None;
    sv_supervise = Supervisor.default;
    sv_sample_every = 0.01;
  }

type shard_row = {
  sr_shard : int;
  sr_ops : int;  (* completed requests against this shard *)
  sr_hits : int;
  sr_throughput : float;
}

type result = {
  r_mode : mode;
  r_ops : int;  (* requests completed inside the measurement window *)
  r_duration : float;
  r_throughput : float;
  r_per_shard : shard_row list;
  r_occupancy : (int * int) list;  (* flush size -> count *)
  r_expired : int;
  r_mem_series : Metrics.mem_sample list;
  r_max_unreclaimed : int;
  r_op_stats : Metrics.op_stats list;
  r_crashes : int;  (* armed crash rules *)
  r_domains : int;  (* runnable cores (= threads unless oversubscribed) *)
  r_rotations : int;  (* oversubscription swaps completed *)
  r_recoveries : Metrics.recovery_event list;
  r_post_quiesced : int;  (* gauge after recovery + full quiesce *)
  r_bound : int option;  (* summed robust ceiling, None if not robust *)
  r_final_size : int;
  r_ok : bool;
  r_verdict : string;
}

(* {2 Store soaks} (shared with [Overload]) *)

let soak_target store ~threads ~range ~seed =
  Array.iter
    (fun k ->
      let s = Store.shard_of store k in
      ignore ((Store.shard store s).Shard.insert ~tid:0 k))
    (Workload.prefill_keys ~range ~seed);
  Soak.target ~threads
    ~unreclaimed:(fun () -> Store.unreclaimed store)
    ~recover:(fun ~tid -> Store.recover store ~tid)
    ~quiesce:(fun ~tid -> Store.quiesce store ~tid)

let invariants_hold store =
  match Store.check_invariants store with () -> true | exception _ -> false

let run cfg mode =
  if cfg.sv_crash < 0 || cfg.sv_crash >= cfg.sv_threads then
    invalid_arg "Serve.run: crash count must be in [0, threads)";
  if cfg.sv_ttl_pct < 0 || cfg.sv_ttl_pct > 100 then
    invalid_arg "Serve.run: ttl_pct must be in [0, 100]";
  let runnable = Option.value cfg.sv_domains ~default:cfg.sv_threads in
  if runnable < 1 || runnable > cfg.sv_threads then
    invalid_arg "Serve.run: domains must be in [1, threads]";
  if runnable < cfg.sv_threads && cfg.sv_crash > 0 then
    (* The crash victims are the top tids; the oversubscription rotation
       would keep re-arming stall rules on the same cells.  Orthogonal
       adversaries, separate runs. *)
    invalid_arg "Serve.run: oversubscription and crash arming are exclusive";
  let store =
    Store.create ?config:cfg.sv_config ~buckets:cfg.sv_buckets
      ~batch_capacity:cfg.sv_batch_capacity ~backend:cfg.sv_backend
      ~scheme:cfg.sv_scheme ~shards:cfg.sv_shards ~threads:cfg.sv_threads ()
  in
  (* Phases as in Runner; the hoisted mix array is indexed unsafely in the
     hot loop rather than calling across the module boundary per request. *)
  let sched = Workload.schedule ~fallback:cfg.sv_mix cfg.sv_phases in
  let mixes =
    Array.init (Workload.phase_count sched) (Workload.phase_mix sched)
  in
  let recorders =
    Array.init cfg.sv_threads (fun _ -> Metrics.create_recorder ())
  in
  let target =
    soak_target store ~threads:cfg.sv_threads ~range:cfg.sv_range
      ~seed:cfg.sv_seed
  in
  let victims = List.init cfg.sv_crash (fun i -> cfg.sv_threads - 1 - i) in
  List.iteri
    (fun i tid ->
      (* Crash at a protected-load crossing mid-run; stagger countdowns
         so multiple victims do not die in lock-step. *)
      Chaos.arm (target.engine ()) ~tid ~point:Smr.Probe.Read
        ~after:(200 * (i + 1))
        Chaos.Crash)
    victims;
  let body (w : Soak.worker) =
    let tid = w.tid and stop = w.stop and phase = w.phase in
    let beat = w.beat and count = w.ops in
    let rng = Workload.Rng.create ~seed:(cfg.sv_seed + (31 * (tid + 1))) in
    let sampler = Workload.sampler cfg.sv_skew ~range:cfg.sv_range in
    let recorder = recorders.(tid) in
    let on_result ~kind ~key:_ ~hit =
      let k =
        if kind = B.get then Metrics.Search
        else if kind = B.put then Metrics.Insert
        else Metrics.Delete
      in
      Metrics.count recorder k ~hit;
      (* Batched mode counts ops at DELIVERY, and only inside the
         window: the post-stop drain completes the queued tail (up to
         shards * batch_capacity requests), which counting at enqueue
         time would credit to the window and inflate the batched/per-op
         ratio; a crashed client's queue never executes at all. *)
      if mode = Batched && not (Atomic.get stop) then incr count
    in
    let client = Store.client ~on_result store ~tid in
    let ttl () =
      if cfg.sv_ttl_pct > 0 && Workload.Rng.int rng 100 < cfg.sv_ttl_pct then
        Some cfg.sv_ttl_s
      else None
    in
    let next_op () =
      Workload.op_for rng (Array.unsafe_get mixes (Atomic.get phase))
    in
    fun () ->
      match mode with
      | Per_op ->
          while not (Atomic.get stop) do
            let key = Workload.draw sampler rng in
            (match next_op () with
            | Workload.Search -> ignore (Store.get client key)
            | Workload.Insert -> ignore (Store.put ?ttl_s:(ttl ()) client key)
            | Workload.Delete -> ignore (Store.delete client key));
            Atomic.incr beat;
            incr count
          done
      | Batched ->
          (* Ops counted in [on_result] at delivery, not here. *)
          while not (Atomic.get stop) do
            let key = Workload.draw sampler rng in
            (match next_op () with
            | Workload.Search -> Store.enqueue_get client key
            | Workload.Insert ->
                ignore (Store.enqueue_put ?ttl_s:(ttl ()) client key)
            | Workload.Delete -> ignore (Store.enqueue_delete client key));
            Atomic.incr beat
          done;
          (* Drain the tail so queued requests complete (outside the
             measurement window; teardown, not measured work). *)
          Store.flush client
  in
  let o =
    Soak.run ~sample_every:cfg.sv_sample_every ~schedule:sched
      ~supervise:cfg.sv_supervise ~runnable target ~workers:cfg.sv_threads
      ~duration:cfg.sv_duration body
  in
  let elapsed = o.elapsed in
  let stats = Store.stats store in
  let per_shard =
    Array.to_list
      (Array.mapi
         (fun i (sops, shits) ->
           {
             sr_shard = i;
             sr_ops = sops;
             sr_hits = shits;
             sr_throughput = float_of_int sops /. elapsed;
           })
         (Stats.per_shard stats))
  in
  let recoveries = o.recoveries in
  let post_quiesced = Store.unreclaimed store in
  let bound =
    if Store.robust store && Store.recoverable store then
      Store.mem_bound store ~range:cfg.sv_range
        ~adopted:(max cfg.sv_crash (List.length recoveries))
        ~stalled:0 ()
    else None
  in
  let missing_recovery =
    List.filter
      (fun tid ->
        not
          (List.exists
             (fun (e : Metrics.recovery_event) -> e.rv_tid = tid)
             recoveries))
      victims
  in
  let verdict =
    Soak.verdict
      [
        Soak.check "uaf" (o.faults = 0) ~detail:(string_of_int o.faults);
        Soak.check "missing-recovery" (missing_recovery = [])
          ~detail:(String.concat "," (List.map string_of_int missing_recovery));
        Soak.check "abandoned"
          (not
             (List.exists
                (fun (e : Metrics.recovery_event) -> e.rv_action = "abandon")
                recoveries));
        (match bound with
        | Some b ->
            Soak.check "gauge-over-bound" (post_quiesced <= b)
              ~detail:(Printf.sprintf "%d>%d" post_quiesced b)
        | None -> Soak.check "gauge-over-bound" true);
        Soak.check "invariants-failed" (invariants_hold store);
      ]
  in
  {
    r_mode = mode;
    r_ops = o.ops;
    r_duration = elapsed;
    r_throughput = float_of_int o.ops /. elapsed;
    r_per_shard = per_shard;
    r_occupancy = Stats.occupancy stats;
    r_expired = Stats.expired_total stats;
    r_mem_series = o.mem_series;
    r_max_unreclaimed = o.max_unreclaimed;
    r_op_stats = Metrics.merge recorders;
    r_crashes = cfg.sv_crash;
    r_domains = runnable;
    r_rotations = o.rotations;
    r_recoveries = recoveries;
    r_post_quiesced = post_quiesced;
    r_bound = bound;
    r_final_size = Store.size store;
    r_ok = verdict = "ok";
    r_verdict = verdict;
  }

(* {2 Artifact rows} *)

let result_json ?speedup cfg (r : result) =
  let open Json in
  let shard_row s =
    Obj
      [
        ("shard", Int s.sr_shard);
        ("ops", Int s.sr_ops);
        ("hits", Int s.sr_hits);
        ("misses", Int (s.sr_ops - s.sr_hits));
        ("throughput", Float s.sr_throughput);
      ]
  in
  let occ (size, flushes) =
    Obj [ ("size", Int size); ("flushes", Int flushes) ]
  in
  Obj
    ([
       ("kind", String "serve");
       ("mode", String (mode_name r.r_mode));
       ("backend", String (Shard.backend_name cfg.sv_backend));
       ( "scheme",
         let (module S : Smr.Smr_intf.S) = cfg.sv_scheme in
         String S.name );
       ("shards", Int cfg.sv_shards);
       ("threads", Int cfg.sv_threads);
       ("range", Int cfg.sv_range);
       ("batch_capacity", Int cfg.sv_batch_capacity);
       ("skew", String (Workload.skew_to_string cfg.sv_skew));
       ("mix", Report.mix_json cfg.sv_mix);
       ("duration", Float r.r_duration);
       ("ops", Int r.r_ops);
       ("throughput", Float r.r_throughput);
       ("per_shard", List (List.map shard_row r.r_per_shard));
       ("occupancy", List (List.map occ r.r_occupancy));
       ("expired", Int r.r_expired);
       ("max_unreclaimed", Int r.r_max_unreclaimed);
       ("post_quiesced", Int r.r_post_quiesced);
       ("bound", match r.r_bound with Some b -> Int b | None -> Null);
       ("crashes", Int r.r_crashes);
       ("domains", Int r.r_domains);
       ("rotations", Int r.r_rotations);
       ( "recoveries",
         List (List.map Metrics.recovery_event_json r.r_recoveries) );
       ("final_size", Int r.r_final_size);
       ("mem_series", List (List.map Metrics.mem_sample_json r.r_mem_series));
       ("op_stats", List (List.map Metrics.op_stats_json r.r_op_stats));
       ("ok", Bool r.r_ok);
       ("verdict", String r.r_verdict);
     ]
    @ match speedup with Some s -> [ ("speedup", Float s) ] | None -> [])
