(* Experiment definitions: one entry per table/figure of the paper's
   evaluation (Section 5), plus the ablations called out in DESIGN.md.

   Every experiment prints a paper-shaped table and returns its runs for
   the caller's BENCH artifact.  Memory-overhead figures (10/11/12b) are
   printed from the runs of their throughput siblings, as in the paper's
   harness. *)

type cfg = {
  threads : int list; (* paper: 1..384; scaled for this host *)
  duration : float; (* seconds per run; paper: 10 *)
  repeats : int; (* paper: 5 (median); default 1 *)
  fig12_range : int; (* paper: 50,000,000; scaled default 1,000,000 *)
}

let default_cfg =
  {
    threads = [ 1; 2; 4; 8 ];
    duration = 2.0;
    repeats = 1;
    fig12_range = 1_000_000;
  }

let quick_cfg =
  {
    threads = [ 1; 2; 4 ];
    duration = 0.4;
    repeats = 1;
    fig12_range = 100_000;
  }

let all_schemes = Smr.Registry.all

(* Median by [key].  With an even count there is no middle element;
   taking the upper-middle biases the reported median upward, so we
   consistently take the lower-middle element — its fields stay those of
   one coherent real run, unlike averaging. *)
let median_by key = function
  | [] -> invalid_arg "Experiments.median_by: empty list"
  | xs ->
      let sorted = List.sort (fun a b -> compare (key a) (key b)) xs in
      List.nth sorted ((List.length sorted - 1) / 2)

let median_result rs = median_by (fun (r : Runner.result) -> r.throughput) rs

(* A ratio of two throughputs on a noisy shared host is scored over
   interleaved pairs, never over one run of each side: [pairs] rounds of
   one [a] and one [b] run, alternating which side goes first so neither
   always inherits the other's warm (or cold) machine.  The score is the
   median of the per-pair [ratio]s, and the median pair is returned with
   it so a report carries two numbers from the same round. *)
let paired_median ~pairs ~ratio a b =
  let rounds =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let x = a () in
          (x, b ())
        else
          let y = b () in
          (a (), y))
  in
  let mid = median_by ratio rounds in
  (rounds, mid, ratio mid)

let run_one cfg ~builder ~scheme ~threads ~range ?mix () =
  median_result
    (List.init cfg.repeats (fun i ->
         Runner.run ?mix ~seed:(0xC0FFEE + i) ~builder ~scheme ~threads ~range
           ~duration:cfg.duration ()))

let cfg_meta cfg =
  [
    ( "config",
      Json.Obj
        [
          ("threads", Json.List (List.map (fun t -> Json.Int t) cfg.threads));
          ("duration", Json.Float cfg.duration);
          ("repeats", Json.Int cfg.repeats);
          ("fig12_range", Json.Int cfg.fig12_range);
        ] );
  ]

(* Generic sweep: structures x schemes x thread counts at one key range. *)
let sweep cfg ~title ~structures ~schemes ~range ?mix () =
  Report.section title;
  let results =
    List.concat_map
      (fun sname ->
        let builder = Instance.find_builder_exn sname in
        List.concat_map
          (fun scheme ->
            List.map
              (fun threads ->
                run_one cfg ~builder ~scheme ~threads ~range ?mix ())
              cfg.threads)
          schemes)
      structures
  in
  Report.table ~header:Report.result_header
    (List.map Report.result_row results);
  results

(* Figures 10/11/12b: the memory-overhead table of a throughput sweep,
   printed from that sweep's own runs; returns them. *)
let memory_table ~title (results : Runner.result list) =
  Report.section title;
  Report.table
    ~header:[ "structure"; "scheme"; "threads"; "range"; "avg_unreclaimed"; "max_unreclaimed" ]
    (List.filter_map
       (fun (r : Runner.result) ->
         if r.scheme = "NR" then None (* NR leaks; not a limbo-list metric *)
         else
           Some
             [
               r.structure;
               r.scheme;
               string_of_int r.threads;
               string_of_int r.range;
               Printf.sprintf "%.0f" r.avg_unreclaimed;
               string_of_int r.max_unreclaimed;
             ])
       results);
  results

(* Figures 8 and 10: list throughput, 50r/25i/25d, ranges 512 and 10,000,
   and the unreclaimed objects of the same runs. *)
let fig8 cfg ~range =
  sweep cfg
    ~title:
      (Printf.sprintf
         "Figure 8 (range %d): HMList vs HList throughput, 50%% read / 50%% \
          write"
         range)
    ~structures:[ "HMList"; "HList" ] ~schemes:all_schemes ~range ()
  |> memory_table
       ~title:
         (Printf.sprintf "Figure 10 (range %d): list avg unreclaimed objects"
            range)

(* Figures 9 and 11: NMTree throughput, ranges 128 and 100,000, and the
   unreclaimed objects of the same runs. *)
let fig9 cfg ~range =
  sweep cfg
    ~title:
      (Printf.sprintf
         "Figure 9 (range %d): NMTree throughput, 50%% read / 50%% write" range)
    ~structures:[ "NMTree" ] ~schemes:all_schemes ~range ()
  |> memory_table
       ~title:
         (Printf.sprintf "Figure 11 (range %d): NMTree avg unreclaimed objects"
            range)

(* Figure 12: NMTree at a key range too large for the cache
   (paper: 50M; scaled via cfg). *)
let fig12 cfg =
  sweep cfg
    ~title:
      (Printf.sprintf
         "Figure 12a (range %d, paper: 50M scaled): NMTree throughput"
         cfg.fig12_range)
    ~structures:[ "NMTree" ] ~schemes:all_schemes ~range:cfg.fig12_range ()
  |> memory_table
       ~title:
         (Printf.sprintf "Figure 12b (range %d): NMTree avg unreclaimed objects"
            cfg.fig12_range)

(* Table 2: restart statistics under HP.

   The paper uses key range 10,000 on a 128-core machine where every
   traversal races with many concurrent updates.  On a single-core host,
   domains only conflict across preemption boundaries, which long-list
   operations rarely straddle, so we report the paper's configuration AND a
   high-contention panel (small range, write-heavy) where the structural
   difference — the Harris-Michael list restarts on any failed eager-unlink
   CAS while SCOT's Harris list restarts only on failed chain cleanups /
   validations — shows on this host too. *)
let table2 cfg =
  Report.section
    "Table 2: restart statistics for HP (restarts & ops per run)";
  let hp = Smr.Registry.find_exn "HP" in
  let panel ~range ~mix =
    List.concat_map
      (fun sname ->
        let builder = Instance.find_builder_exn sname in
        List.map
          (fun threads ->
            run_one cfg ~builder ~scheme:hp ~threads ~range ~mix ())
          cfg.threads)
      [ "HMList"; "HList" ]
  in
  let results =
    panel ~range:10_000 ~mix:Workload.read_write_50
    @ panel ~range:128 ~mix:Workload.write_only
  in
  Report.table
    ~header:
      [ "structure"; "threads"; "range"; "mix"; "restarts"; "ops";
        "restart_rate" ]
    (List.map
       (fun (r : Runner.result) ->
         [
           r.structure;
           string_of_int r.threads;
           string_of_int r.range;
           (if r.range = 10_000 then "50r/25i/25d" else "50i/50d");
           string_of_int r.restarts;
           string_of_int r.ops;
           Printf.sprintf "%.3f%%"
             (100.0 *. float_of_int r.restarts
             /. float_of_int (max 1 r.ops));
         ])
       results);
  results

(* Table 1: SMR-compatibility matrix, demonstrated empirically.  For each
   structure variant and scheme we run a short write-heavy, small-range,
   aggressively-reclaiming stress; a structure is incompatible when the
   simulated use-after-free fires.  Harris' list without SCOT
   (HListUnsafe: Harris_list with validation off) must fault under the
   robust schemes and survive under EBR/NR/DBR (Figure 2); every
   SCOT-enabled structure must survive everywhere. *)
let table1 ?(threads = 8) ?(duration = 1.0) () =
  Report.section
    "Table 1: data-structure compatibility with SMR schemes (V = safe, X = \
     use-after-free observed)";
  let config =
    (* Aggressive reclamation maximises the fault window. *)
    Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:4 ~batch_size:1
      ~threads ()
  in
  let structures =
    [ "HListUnsafe"; "HList"; "HListWF"; "HMList"; "NMTree"; "SkipList";
      "HashMap" ]
  in
  let probe builder scheme =
    let r =
      Runner.run ~builder ~scheme ~threads ~range:16
        ~mix:(Workload.mix ~read:20 ~insert:40 ~delete:40)
        ~duration ~config ~check:false ()
    in
    r.faults
  in
  let rows =
    List.map
      (fun sname ->
        let builder = Instance.find_builder_exn sname in
        let cells =
          List.map
            (fun (module S : Smr.Smr_intf.S) ->
              let faults = probe builder (module S : Smr.Smr_intf.S) in
              if faults > 0 then "X" else "V")
            all_schemes
        in
        sname :: cells)
      structures
  in
  Report.table
    ~header:("structure" :: List.map (fun (module S : Smr.Smr_intf.S) -> S.name) all_schemes)
    rows;
  rows

(* Ablation: the §3.2.1 recovery optimisation for Harris' list. *)
let ablation_recovery cfg =
  List.concat_map
    (fun range ->
      sweep cfg
        ~title:
          (Printf.sprintf
             "Ablation (range %d): HList recovery optimisation on vs off (HP)"
             range)
        ~structures:[ "HList"; "HList-norec" ]
        ~schemes:[ Smr.Registry.find_exn "HP"; Smr.Registry.find_exn "HPopt" ]
        ~range ())
    [ 512; 10_000 ]

(* Ablation: wait-free vs lock-free traversals (§3.4: "almost identical"). *)
let ablation_wf cfg =
  sweep cfg
    ~title:"Ablation: HList lock-free vs wait-free traversals (HP, EBR)"
    ~structures:[ "HList"; "HListWF" ]
    ~schemes:[ Smr.Registry.find_exn "HP"; Smr.Registry.find_exn "EBR" ]
    ~range:10_000 ()

(* {2 Chaos: fault-injection validation (bounded memory under stalls)} *)

type chaos_run = {
  c_structure : string;
  c_scheme : string;
  c_robust : bool;
  c_threads : int; (* total participants, workers + stalled *)
  c_workers : int;
  c_stalled : int;
  c_point : string;
  c_range : int;
  c_duration : float;
  c_ops : int;
  c_throughput : float;
  c_bound : int option; (* computed ceiling; None for non-robust schemes *)
  c_max_unreclaimed : int;
  c_first_third : float; (* mean unreclaimed over the first third of *)
  c_last_third : float; (* samples / the last third: the growth signal *)
  c_post_quiesced : int; (* gauge once the stall is released and quiesced *)
  c_ok : bool;
  c_verdict : string; (* "ok", or the failed check with its numbers *)
  c_mem_series : Metrics.mem_sample list;
  c_trace : string list;
}

(* Mean unreclaimed over the first and last thirds of the sample series:
   robust schemes must flatten (bounded), EBR/NR must keep climbing. *)
let third_means (series : Metrics.mem_sample list) =
  let arr =
    Array.of_list
      (List.map
         (fun (s : Metrics.mem_sample) -> float_of_int s.unreclaimed)
         series)
  in
  let n = Array.length arr in
  if n < 3 then (0.0, 0.0)
  else begin
    let third = n / 3 in
    let mean lo hi =
      let s = ref 0.0 in
      for i = lo to hi - 1 do
        s := !s +. arr.(i)
      done;
      !s /. float_of_int (max 1 (hi - lo))
    in
    (mean 0 third, mean (n - third) n)
  end

(* The chaos/recover run shape: a small limbo threshold so reclamation
   keeps pace with the 2 ms gauge sampling in a short run, and the
   injection trace captured before the engine shuts down.  [prepare]
   arms the faults and reads the bounds off the built instance. *)
let fault_run ?config ?workers ?supervise ~structure ~scheme ~threads ~range
    ~duration prepare =
  let config =
    match config with
    | Some c -> c
    | None ->
        Smr.Smr_intf.make_config ~limbo_threshold:32 ~epoch_freq:16
          ~batch_size:8 ~threads ()
  in
  let inst = ref None and trace = ref [] in
  let r =
    Runner.run ~config ?workers ?supervise ~check:false ~measure_latency:false
      ~sample_every:0.002
      ~prepare:(fun i ->
        inst := Some i;
        prepare config i)
      ~finish:(fun i -> trace := Chaos.trace (i.Instance.fault.engine ()))
      ~builder:(Instance.find_builder_exn structure)
      ~scheme ~threads ~range ~duration ()
  in
  (r, Option.get !inst, !trace)

(* One validated run: [stalled] extra participants park at [point] while
   [threads - stalled] workers churn.  Robust schemes must keep the
   unreclaimed gauge under the {!Chaos.mem_bound} ceiling; EBR/NR must show
   clear growth between the first and last third of the series. *)
let chaos ?(structure = "HList") ?(threads = 4) ?(stalled = 1)
    ?(point = "read") ?(range = 256) ?(duration = 1.0) ?config
    ~scheme:(module S : Smr.Smr_intf.S) () =
  let workers = threads - stalled in
  if workers < 1 then invalid_arg "Experiments.chaos: no worker threads left";
  let bound = ref None in
  let r, inst, trace =
    fault_run ?config ~workers ~structure ~scheme:(module S) ~threads ~range
      ~duration (fun config inst ->
        bound :=
          Chaos.mem_bound
            (module S)
            ~config ~threads ~slots:inst.Instance.slots ~range ~stalled ();
        for tid = workers to threads - 1 do
          inst.Instance.fault.stall ~tid ~point
        done)
  in
  (* The run's shutdown released the parked participants and quiesced
     every tid, so this reads the gauge drained after the stall. *)
  let post_quiesced = inst.Instance.unreclaimed () in
  let first_third, last_third = third_means r.mem_series in
  let check =
    match !bound with
    | Some b ->
        Soak.check "BOUND EXCEEDED" (r.max_unreclaimed <= b)
          ~detail:(Printf.sprintf "max=%d>bound=%d" r.max_unreclaimed b)
    | None ->
        (* Non-robust: the stalled reservation must visibly pin memory —
           the tail of the series sits clearly above its head. *)
        let limit = (1.5 *. first_third) +. 32.0 in
        Soak.check "NO GROWTH" (last_third > limit)
          ~detail:(Printf.sprintf "last=%.0f<=limit=%.0f" last_third limit)
  in
  {
    c_structure = r.structure;
    c_scheme = r.scheme;
    c_robust = S.capabilities.Smr.Smr_intf.robust;
    c_threads = threads;
    c_workers = workers;
    c_stalled = stalled;
    c_point = point;
    c_range = range;
    c_duration = r.duration;
    c_ops = r.ops;
    c_throughput = r.throughput;
    c_bound = !bound;
    c_max_unreclaimed = r.max_unreclaimed;
    c_first_third = first_third;
    c_last_third = last_third;
    c_post_quiesced = post_quiesced;
    c_ok = check.ok;
    c_verdict = Soak.verdict [ check ];
    c_mem_series = r.mem_series;
    c_trace = trace;
  }

let chaos_header =
  [ "scheme"; "class"; "threads"; "stalled"; "point"; "bound";
    "max_unreclaimed"; "first_third"; "last_third"; "quiesced"; "verdict" ]

let chaos_row (c : chaos_run) =
  [
    c.c_scheme;
    (if c.c_robust then "robust" else "not robust");
    string_of_int c.c_threads;
    string_of_int c.c_stalled;
    c.c_point;
    (match c.c_bound with Some b -> string_of_int b | None -> "-");
    string_of_int c.c_max_unreclaimed;
    Printf.sprintf "%.0f" c.c_first_third;
    Printf.sprintf "%.0f" c.c_last_third;
    string_of_int c.c_post_quiesced;
    c.c_verdict;
  ]

(* Every scheme at each thread count, printed as one verdict table. *)
let matrix ~title ~header ~row ~threads_list schemes run =
  Report.section title;
  let runs =
    List.concat_map
      (fun scheme -> List.map (run scheme) threads_list)
      schemes
  in
  Report.table ~header (List.map row runs);
  runs

(* The chaos validation matrix: every scheme at each thread count, one
   stalled participant, mid-traversal stall.  Robust schemes bounded,
   EBR/NR growing. *)
let chaos_matrix ?(structure = "HList") ?(threads_list = [ 2; 4 ])
    ?(stalled = 1) ?(point = "read") ?(range = 256) ?(duration = 1.0)
    ?(schemes = all_schemes) () =
  (* Reject bad flags before the section header is printed. *)
  if range <= 0 then invalid_arg "Experiments.chaos: range must be positive";
  matrix ~header:chaos_header ~row:chaos_row ~threads_list schemes
    ~title:
      (Printf.sprintf
         "Chaos: unreclaimed-memory validation with %d thread(s) stalled at \
          '%s' (robust schemes bounded, EBR/NR growing)"
         stalled point)
    (fun scheme threads ->
      chaos ~structure ~threads ~stalled ~point ~range ~duration ~scheme ())

let chaos_run_json (c : chaos_run) =
  Json.Obj
    [
      ("kind", Json.String "chaos");
      ("structure", Json.String c.c_structure);
      ("scheme", Json.String c.c_scheme);
      ("robust", Json.Bool c.c_robust);
      ("threads", Json.Int c.c_threads);
      ("workers", Json.Int c.c_workers);
      ("stalled", Json.Int c.c_stalled);
      ("point", Json.String c.c_point);
      ("range", Json.Int c.c_range);
      ("duration", Json.Float c.c_duration);
      ("ops", Json.Int c.c_ops);
      ("throughput", Json.Float c.c_throughput);
      ( "bound",
        match c.c_bound with Some b -> Json.Int b | None -> Json.Null );
      ("max_unreclaimed", Json.Int c.c_max_unreclaimed);
      ("first_third", Json.Float c.c_first_third);
      ("last_third", Json.Float c.c_last_third);
      ("post_quiesced", Json.Int c.c_post_quiesced);
      ("ok", Json.Bool c.c_ok);
      ( "mem_series",
        Json.List (List.map Metrics.mem_sample_json c.c_mem_series) );
      ("trace", Json.List (List.map (fun e -> Json.String e) c.c_trace));
    ]

(* Clean-run acceptance floor: with no fault injected, a scheme that adds
   stall machinery (the neutralizing DBR) must not give back the cheap
   path's win — clean-run throughput stays within 10% of EBR on the same
   workload, as the median ratio of [floor_pairs] interleaved pairs. *)

type floor_run = {
  fl_structure : string;
  fl_scheme : string;
  fl_threads : int;
  fl_range : int;
  fl_duration : float;
  fl_throughput : float;
  fl_ebr_throughput : float;
  fl_ratio : float;
  fl_ok : bool;
}

let floor_pairs = 5

let clean_floor ?(structure = "HList") ?(threads = 4) ?(range = 256)
    ?(duration = 1.0) ~scheme:(module S : Smr.Smr_intf.S) () =
  Report.section
    (Printf.sprintf
       "Clean-run floor: throughput vs EBR (no stall, %s >= 0.9x, median \
        of %d pairs)"
       S.name floor_pairs);
  let builder = Instance.find_builder_exn structure in
  let one scheme () =
    Runner.run ~check:false ~measure_latency:false ~builder ~scheme ~threads
      ~range ~duration ()
  in
  let _, (r, ebr), ratio =
    paired_median ~pairs:floor_pairs
      ~ratio:(fun ((r : Runner.result), (ebr : Runner.result)) ->
        if ebr.throughput > 0.0 then r.throughput /. ebr.throughput
        else infinity)
      (one (module S : Smr.Smr_intf.S))
      (one (Smr.Registry.find_exn "EBR"))
  in
  let run =
    {
      fl_structure = structure;
      fl_scheme = S.name;
      fl_threads = threads;
      fl_range = range;
      fl_duration = duration;
      fl_throughput = r.Runner.throughput;
      fl_ebr_throughput = ebr.Runner.throughput;
      fl_ratio = ratio;
      fl_ok = ratio >= 0.9;
    }
  in
  Report.table
    ~header:[ "scheme"; "threads"; "throughput"; "ratio"; "verdict" ]
    [
      [ "EBR"; string_of_int threads;
        Printf.sprintf "%.0f" run.fl_ebr_throughput; "1.00"; "-" ];
      [ S.name; string_of_int threads;
        Printf.sprintf "%.0f" run.fl_throughput;
        Printf.sprintf "%.2f" run.fl_ratio;
        (if run.fl_ok then "ok" else "BELOW FLOOR") ];
    ];
  run

let floor_run_json (f : floor_run) =
  Json.Obj
    [
      ("kind", Json.String "floor");
      ("structure", Json.String f.fl_structure);
      ("scheme", Json.String f.fl_scheme);
      ("threads", Json.Int f.fl_threads);
      ("range", Json.Int f.fl_range);
      ("duration", Json.Float f.fl_duration);
      ("throughput", Json.Float f.fl_throughput);
      ("ebr_throughput", Json.Float f.fl_ebr_throughput);
      ("ratio", Json.Float f.fl_ratio);
      ("ok", Json.Bool f.fl_ok);
    ]

(* {2 Stall comparison: neutralization vs era/interval tracking} *)

(* The DBR headline artifact: the same one-stalled-reader chaos run for a
   panel of schemes side by side.  DBR's neutralization delivers once the
   laggard falls [neutralize_after] epochs behind, so its gauge flattens
   where EBR's grows; IBR bounds it too but keeps paying per-era
   tracking.  A panel scheme already run in [matrix] with the same
   shape is taken from there, not run twice.  Returns the underlying
   chaos runs in panel order. *)
let stall_comparison ?(structure = "HList") ?(threads = 4) ?(stalled = 1)
    ?(point = "read") ?(range = 256) ?(duration = 1.0)
    ?(schemes = [ "DBR"; "EBR"; "IBR" ]) ~matrix () =
  Report.section
    (Printf.sprintf
       "Stall comparison (%d stalled at '%s'): DBR neutralization vs \
        era/interval schemes"
       stalled point);
  let same name c =
    c.c_scheme = name && c.c_structure = structure && c.c_threads = threads
    && c.c_stalled = stalled && c.c_point = point && c.c_range = range
  in
  let runs =
    List.map
      (fun name ->
        match List.find_opt (same name) matrix with
        | Some c -> c
        | None ->
            chaos ~structure ~threads ~stalled ~point ~range ~duration
              ~scheme:(Smr.Registry.find_exn name) ())
      schemes
  in
  Report.table ~header:chaos_header (List.map chaos_row runs);
  runs

let stall_cmp_json ~structure ~threads ~stalled ~point ~range ~duration
    (runs : chaos_run list) =
  Json.Obj
    [
      ("kind", Json.String "stall_cmp");
      ("structure", Json.String structure);
      ("threads", Json.Int threads);
      ("stalled", Json.Int stalled);
      ("point", Json.String point);
      ("range", Json.Int range);
      ("duration", Json.Float duration);
      ( "runs",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("scheme", Json.String c.c_scheme);
                   ("robust", Json.Bool c.c_robust);
                   ( "bound",
                     match c.c_bound with
                     | Some b -> Json.Int b
                     | None -> Json.Null );
                   ("max_unreclaimed", Json.Int c.c_max_unreclaimed);
                   ("first_third", Json.Float c.c_first_third);
                   ("last_third", Json.Float c.c_last_third);
                   ("throughput", Json.Float c.c_throughput);
                   ("ok", Json.Bool c.c_ok);
                 ])
             runs) );
    ]

(* {2 Self-tuning reclamation thresholds} *)

(* One IBR SkipList run per reclamation mode on a phase-shifting workload
   (churn / read / drain cycling) with one extra participant stalled
   mid-traversal for the first 60% of the run, then resumed.  While the
   reader is stalled its reservation pins every retire, so any static
   threshold the pinned set outgrows degenerates to a full limbo scan per
   retire; the adaptive controller doubles out of that regime.  The score
   is adaptive throughput vs the best static whose peak unreclaimed gauge
   stayed within 1.1x of the adaptive run's (the "equal memory ceiling"
   comparison: larger statics buy throughput with memory). *)

type tune_run = {
  tn_mode : string; (* "static" | "oracle" | "adaptive" *)
  tn_threshold : int; (* static value, or the adaptive starting point *)
  tn_tuned : int; (* final controller threshold (= tn_threshold if static) *)
  tn_run : Runner.result;
  tn_speedup : float option; (* adaptive: vs best qualifying static *)
}

let stat (r : Runner.result) k =
  Option.value ~default:0 (List.assoc_opt k r.scheme_stats)

let tune_one ~duration ~range ~mode ~adaptive ~threshold =
  let threads = 3 in
  let workers = threads - 1 in
  let releaser = ref None in
  let r =
    Runner.run
      ~config:
        (Smr.Smr_intf.make_config ~limbo_threshold:threshold ~epoch_freq:16
           ~batch_size:8 ~adaptive ~threads ())
      ~workers
      ~phases:(Workload.phases_of_string "churn:0.2,read:0.1,drain:0.1")
      ~check:false ~measure_latency:false
      ~prepare:(fun inst ->
        inst.Instance.fault.stall ~tid:workers ~point:"read";
        (* Resume the straggler at 60% of the run so the drain phases at
           the tail reclaim the backlog under every mode. *)
        releaser :=
          Some
            (Domain.spawn (fun () ->
                 Unix.sleepf (duration *. 0.6);
                 inst.Instance.fault.resume ~tid:workers)))
      ~finish:(fun _ -> Option.iter Domain.join !releaser)
      ~builder:(Instance.find_builder_exn "SkipList")
      ~scheme:(Smr.Registry.find_exn "IBR") ~threads ~range ~duration ()
  in
  {
    tn_mode = mode;
    tn_threshold = threshold;
    tn_tuned =
      Option.value ~default:threshold
        (List.assoc_opt "tuned_threshold" r.scheme_stats);
    tn_run = r;
    tn_speedup = None;
  }

let tune ?(duration = 2.0) ?(range = 8192) ?(statics = [ 16; 64; 256; 1024 ])
    ?(oracles = [ 4096; 8192 ]) () =
  if statics = [] then invalid_arg "Experiments.tune: empty statics list";
  let static mode t =
    tune_one ~duration ~range ~mode ~adaptive:`Off ~threshold:t
  in
  let static_runs = List.map (static "static") statics in
  (* Oracle statics already know this workload's pinned-set size, a choice
     only hindsight provides: they are reported but kept out of the
     speedup, which scores self-tuning against a threshold picked at
     config time. *)
  let oracle_runs = List.map (static "oracle") oracles in
  let lo = 16 in
  let adaptive =
    tune_one ~duration ~range ~mode:"adaptive" ~threshold:lo
      ~adaptive:
        (`On { Smr.Smr_intf.min_threshold = lo; max_threshold = 65_536 })
  in
  let ceiling = 1.1 *. float_of_int adaptive.tn_run.max_unreclaimed in
  let qualifying =
    List.filter
      (fun r -> float_of_int r.tn_run.max_unreclaimed <= ceiling)
      static_runs
  in
  let best_static =
    List.fold_left
      (fun best r -> Float.max best r.tn_run.throughput)
      0.0
      (if qualifying <> [] then qualifying else static_runs)
  in
  let runs =
    static_runs @ oracle_runs
    @ [
        {
          adaptive with
          tn_speedup = Some (adaptive.tn_run.throughput /. best_static);
        };
      ]
  in
  Report.section
    "Self-tuning reclamation threshold (phase-shifting workload, one \
     straggler for the first 60%)";
  Report.table
    ~header:
      [ "mode"; "threshold"; "tuned"; "ops"; "ops/s"; "max_unreclaimed";
        "sweeps"; "scanned"; "speedup" ]
    (List.map
       (fun t ->
         let r = t.tn_run in
         [
           t.tn_mode;
           string_of_int t.tn_threshold;
           string_of_int t.tn_tuned;
           string_of_int r.ops;
           Report.human r.throughput;
           string_of_int r.max_unreclaimed;
           string_of_int (stat r "sweep_passes");
           Report.human (float_of_int (stat r "sweep_scanned"));
           (match t.tn_speedup with
           | Some s -> Printf.sprintf "%.2fx vs best static <= ceiling" s
           | None -> "-");
         ])
       runs);
  runs

let tune_run_json t =
  let r = t.tn_run in
  Json.Obj
    ([
       ("kind", Json.String "tune");
       ("scheme", Json.String r.scheme);
       ("structure", Json.String r.structure);
       ("threads", Json.Int r.threads);
       ("mode", Json.String t.tn_mode);
       ("threshold", Json.Int t.tn_threshold);
       ("tuned_threshold", Json.Int t.tn_tuned);
       ("ops", Json.Int r.ops);
       ("duration", Json.Float r.duration);
       ("throughput", Json.Float r.throughput);
       ("max_unreclaimed", Json.Int r.max_unreclaimed);
       ("sweeps", Json.Int (stat r "sweep_passes"));
       ("scanned", Json.Int (stat r "sweep_scanned"));
     ]
    @ Option.fold ~none:[] ~some:(fun s -> [ ("speedup", Json.Float s) ])
        t.tn_speedup)

(* {2 Recovery: crash k domains mid-traversal, supervise, validate} *)

type recover_run = {
  rc_structure : string;
  rc_scheme : string;
  rc_robust : bool;
  rc_recoverable : bool;
  rc_threads : int;
  rc_crashed : int; (* workers crashed mid-traversal *)
  rc_range : int;
  rc_duration : float;
  rc_ops : int;
  rc_throughput : float;
  rc_recoveries : int; (* supervised recoveries observed *)
  rc_events : Metrics.recovery_event list;
  rc_peak_bound : int option; (* ceiling while the crash is unrecovered *)
  rc_post_bound : int option; (* ceiling once the orphan is adopted *)
  rc_max_unreclaimed : int;
  rc_post_max : int; (* gauge peak after the last recovery *)
  rc_post_quiesced : int; (* gauge after the post-run quiesce *)
  rc_recovery_s : float; (* last recovery completed, seconds since release *)
  rc_settle_s : float; (* first post-recovery sample under the post
                          bound; -1 when it never settled *)
  rc_warnings : int; (* adopt warnings fired (NR fires one per adopt) *)
  rc_warning_msgs : string list; (* the captured messages, in firing order *)
  rc_ok : bool;
  rc_verdict : string;
  rc_checks : Soak.check list; (* every check, in verdict order *)
  rc_mem_series : Metrics.mem_sample list;
  rc_trace : string list;
}

(* One validated crash-recovery run: the top [crashed] worker tids are
   armed to raise {!Chaos.Crashed} on their 201st protected-read crossing
   (mid-traversal, protection published), the supervised runner recovers
   each handle (deactivate + adopt + sweep) and respawns a replacement,
   and the gauge series is checked against the recovery claims:

   - robust schemes: peak under the [stalled:k, adopted:k] bound (the
     orphan pins memory only until adoption), every sample after the last
     recovery under the tighter [stalled:0, adopted:k] bound, and the
     post-run quiesce drains to that bound too;
   - EBR (recoverable, not robust): once the dead reservation is
     deactivated the epoch advances again, so growth must flatten over
     the post-recovery samples;
   - NR: adoption cannot bound memory — the run must still respawn every
     victim, and the harness synthesizes one warning per adoption on a
     scheme whose [capabilities.recoverable] is false (the supervisor,
     not the scheme, owns surfacing the leak). *)
let recover ?(structure = "HList") ?(threads = 4) ?(crashed = 1)
    ?(range = 256) ?(duration = 1.0) ?config
    ~scheme:(module S : Smr.Smr_intf.S) () =
  if crashed < 1 || crashed >= threads then
    invalid_arg "Experiments.recover: crashed must be in [1, threads)";
  let peak_bound = ref None and post_bound = ref None in
  let r, inst, trace =
    fault_run ?config ~supervise:Supervisor.default ~structure
      ~scheme:(module S) ~threads ~range ~duration (fun config inst ->
        let bound stalled =
          Chaos.mem_bound
            (module S)
            ~config ~threads ~slots:inst.Instance.slots ~range
            ~adopted:crashed ~stalled ()
        in
        peak_bound := bound crashed;
        post_bound := bound 0;
        let e = inst.Instance.fault.engine () in
        for tid = threads - crashed to threads - 1 do
          Chaos.arm e ~tid ~point:Smr.Probe.Read ~after:200 Chaos.Crash
        done)
  in
  (* Every tid is quiesced by now (recovered handles are fresh, so none
     refuses the pass); the instance outlives the run, so this reads the
     fully drained gauge. *)
  let post_quiesced = inst.Instance.unreclaimed () in
  let n_rec = List.length r.recoveries in
  let recovery_s =
    List.fold_left
      (fun acc (e : Metrics.recovery_event) -> Float.max acc e.rv_t)
      0.0 r.recoveries
  in
  let post =
    List.filter
      (fun (s : Metrics.mem_sample) -> s.t >= recovery_s)
      r.mem_series
  in
  let post_max =
    List.fold_left
      (fun acc (s : Metrics.mem_sample) -> max acc s.unreclaimed)
      0 post
  in
  let settle_s =
    match !post_bound with
    | None -> recovery_s
    | Some b -> (
        match
          List.find_opt
            (fun (s : Metrics.mem_sample) -> s.unreclaimed <= b)
            post
        with
        | Some s -> s.t
        | None -> -1.0)
  in
  let first_third, last_third = third_means post in
  let caps = S.capabilities in
  (* Adoption on a non-recoverable scheme cannot restore a bounded gauge;
     the supervisor (this harness) consults [capabilities.recoverable]
     and surfaces the leak itself — one warning per adoption event,
     where the scheme's adopt hook used to print. *)
  let warning_msgs =
    if caps.Smr.Smr_intf.recoverable then []
    else
      List.map
        (fun (e : Metrics.recovery_event) ->
          Printf.sprintf
            "%s: adopted tid %d's limbo on a non-recoverable scheme — \
             unreclaimed memory stays unbounded"
            S.name e.rv_tid)
        r.recoveries
  in
  let warnings = List.length warning_msgs in
  let robust = caps.Smr.Smr_intf.robust in
  let recoverable = caps.Smr.Smr_intf.recoverable in
  let over name v b = Printf.sprintf "%s=%d>bound=%d" name v b in
  let checks =
    Soak.check "MISSING RECOVERIES" (n_rec >= crashed)
      ~detail:(Printf.sprintf "recoveries=%d<crashed=%d" n_rec crashed)
    ::
    (if recoverable && robust then
       match (!peak_bound, !post_bound) with
       | Some pk, Some pb ->
           [
             Soak.check "PEAK BOUND EXCEEDED" (r.max_unreclaimed <= pk)
               ~detail:(over "max" r.max_unreclaimed pk);
             Soak.check "POST-ADOPTION BOUND EXCEEDED" (post_max <= pb)
               ~detail:(over "post_max" post_max pb);
             Soak.check "DID NOT DRAIN" (post_quiesced <= pb)
               ~detail:(over "quiesced" post_quiesced pb);
           ]
       | _ -> [ Soak.check "NO BOUND" false ] (* robust implies a bound *)
     else if recoverable then
       (* EBR: no a-priori bound, but deactivation must stop the growth. *)
       let limit = (1.5 *. first_third) +. 64.0 in
       [
         Soak.check "STILL GROWING" (last_third <= limit)
           ~detail:(Printf.sprintf "last=%.0f>limit=%.0f" last_third limit);
       ]
     else
       [
         Soak.check "NO ADOPT WARNING" (warnings >= crashed)
           ~detail:(Printf.sprintf "warnings=%d<crashed=%d" warnings crashed);
       ])
  in
  let ok = Soak.failures checks = [] in
  let verdict =
    if not ok then Soak.verdict checks
    else if robust then "recovered, bounded"
    else if recoverable then "recovered, growth stopped"
    else "supervised (leaks by design)"
  in
  {
    rc_structure = r.structure;
    rc_scheme = r.scheme;
    rc_robust = robust;
    rc_recoverable = recoverable;
    rc_threads = threads;
    rc_crashed = crashed;
    rc_range = range;
    rc_duration = r.duration;
    rc_ops = r.ops;
    rc_throughput = r.throughput;
    rc_recoveries = n_rec;
    rc_events = r.recoveries;
    rc_peak_bound = !peak_bound;
    rc_post_bound = !post_bound;
    rc_max_unreclaimed = r.max_unreclaimed;
    rc_post_max = post_max;
    rc_post_quiesced = post_quiesced;
    rc_recovery_s = recovery_s;
    rc_settle_s = settle_s;
    rc_warnings = warnings;
    rc_warning_msgs = warning_msgs;
    rc_ok = ok;
    rc_verdict = verdict;
    rc_checks = checks;
    rc_mem_series = r.mem_series;
    rc_trace = trace;
  }

let recover_header =
  [ "scheme"; "class"; "threads"; "crashed"; "recoveries"; "peak"; "bound";
    "post_max"; "post_bound"; "quiesced"; "recovery_s"; "verdict" ]

let recover_row (c : recover_run) =
  let opt = function Some b -> string_of_int b | None -> "-" in
  [
    c.rc_scheme;
    (if c.rc_robust then "robust"
     else if c.rc_recoverable then "recoverable"
     else "leaky");
    string_of_int c.rc_threads;
    string_of_int c.rc_crashed;
    string_of_int c.rc_recoveries;
    string_of_int c.rc_max_unreclaimed;
    opt c.rc_peak_bound;
    string_of_int c.rc_post_max;
    opt c.rc_post_bound;
    string_of_int c.rc_post_quiesced;
    Printf.sprintf "%.3f" c.rc_recovery_s;
    (if c.rc_ok then "ok" else c.rc_verdict);
  ]

(* The recovery matrix: every scheme at each thread count, crashing one
   worker mid-traversal under supervision. *)
let recover_matrix ?(structure = "HList") ?(threads_list = [ 2; 4 ])
    ?(crashed = 1) ?(range = 256) ?(duration = 1.0) () =
  (* Reject bad flags before the section header is printed. *)
  if List.exists (fun threads -> crashed < 1 || crashed >= threads) threads_list
  then invalid_arg "Experiments.recover: crashed must be in [1, threads)";
  if range <= 0 then invalid_arg "Experiments.recover: range must be positive";
  let runs =
    matrix ~header:recover_header ~row:recover_row ~threads_list all_schemes
      ~title:
        (Printf.sprintf
           "Recovery: crash %d domain(s) mid-traversal, supervise \
            (deactivate + adopt + respawn); robust schemes return under the \
            adoption bound, EBR stops growing, NR warns"
           crashed)
      (fun scheme threads ->
        recover ~structure ~threads ~crashed ~range ~duration ~scheme ())
  in
  (* Adoption warnings were captured during the runs (the hook is swapped
     for the duration); surface them as report notes under the table. *)
  List.iter
    (fun c ->
      List.iter
        (fun msg ->
          Report.note
            (Printf.sprintf "%s x%d: %s" c.rc_scheme c.rc_threads msg))
        c.rc_warning_msgs)
    runs;
  runs

let recover_run_json (c : recover_run) =
  let opt = function Some b -> Json.Int b | None -> Json.Null in
  Json.Obj
    [
      ("kind", Json.String "recovery");
      ("structure", Json.String c.rc_structure);
      ("scheme", Json.String c.rc_scheme);
      ("robust", Json.Bool c.rc_robust);
      ("recoverable", Json.Bool c.rc_recoverable);
      ("threads", Json.Int c.rc_threads);
      ("crashed", Json.Int c.rc_crashed);
      ("range", Json.Int c.rc_range);
      ("duration", Json.Float c.rc_duration);
      ("ops", Json.Int c.rc_ops);
      ("throughput", Json.Float c.rc_throughput);
      ("recoveries", Json.Int c.rc_recoveries);
      ( "events",
        Json.List (List.map Metrics.recovery_event_json c.rc_events) );
      ("peak_bound", opt c.rc_peak_bound);
      ("post_bound", opt c.rc_post_bound);
      ("max_unreclaimed", Json.Int c.rc_max_unreclaimed);
      ("post_max_unreclaimed", Json.Int c.rc_post_max);
      ("post_quiesced", Json.Int c.rc_post_quiesced);
      ("recovery_s", Json.Float c.rc_recovery_s);
      ("settle_s", Json.Float c.rc_settle_s);
      ("adopt_warnings", Json.Int c.rc_warnings);
      ("ok", Json.Bool c.rc_ok);
      ("verdict", Json.String c.rc_verdict);
      ( "mem_series",
        Json.List (List.map Metrics.mem_sample_json c.rc_mem_series) );
      ("trace", Json.List (List.map (fun e -> Json.String e) c.rc_trace));
    ]

(* {2 Chaos: schedule fuzzing (hunting use-after-free)} *)

type fuzz_result = {
  fz_structure : string;
  fz_scheme : string;
  fz_seeds : int; (* schedules tried *)
  fz_uaf_seed : int option; (* first seed whose run faulted *)
  fz_trace : string list; (* injection trace of the faulting run *)
}

(* One seeded schedule against one (structure, scheme): aggressive
   reclamation, tiny key range, write-heavy mix — the Table 1 stress — plus
   random stalls and crashes on the worker tids. *)
let fuzz_once ~builder ~scheme ~threads ~duration ~seed () =
  let schedule = Chaos.random_schedule ~threads ~seed in
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:4 ~batch_size:1
      ~threads ()
  in
  let trace = ref [] in
  let r =
    Runner.run ~seed ~config ~check:false ~measure_latency:false
      ~sample_every:0.05
      ~prepare:(fun inst ->
        Chaos.apply (inst.Instance.fault.engine ()) schedule)
      ~finish:(fun inst -> trace := Chaos.trace (inst.Instance.fault.engine ()))
      ~builder ~scheme ~threads ~range:16
      ~mix:(Workload.mix ~read:20 ~insert:40 ~delete:40)
      ~duration ()
  in
  (r.Runner.faults > 0, !trace)

(* Try seeded schedules until a use-after-free fires or the time budget
   runs out.  On HListUnsafe a fault surfaces within seconds; on the
   SCOT-enabled structures it must never fire. *)
let fuzz ?(structure = "HListUnsafe") ?(threads = 4) ?(budget_s = 30.0)
    ?(duration = 0.25) ~scheme:(module S : Smr.Smr_intf.S) () =
  let builder = Instance.find_builder_exn structure in
  let result seeds uaf_seed trace =
    {
      fz_structure = structure;
      fz_scheme = S.name;
      fz_seeds = seeds;
      fz_uaf_seed = uaf_seed;
      fz_trace = trace;
    }
  in
  let t0 = Clock.now () in
  let rec go seed =
    if Clock.now () -. t0 > budget_s then result (seed - 1) None []
    else
      let uaf, trace =
        fuzz_once ~builder ~scheme:(module S : Smr.Smr_intf.S) ~threads
          ~duration ~seed ()
      in
      if uaf then result seed (Some seed) trace else go (seed + 1)
  in
  go 1

let fuzz_result_json (f : fuzz_result) =
  Json.Obj
    [
      ("kind", Json.String "fuzz");
      ("structure", Json.String f.fz_structure);
      ("scheme", Json.String f.fz_scheme);
      ("seeds", Json.Int f.fz_seeds);
      ( "uaf_seed",
        match f.fz_uaf_seed with Some s -> Json.Int s | None -> Json.Null );
      ("trace", Json.List (List.map (fun e -> Json.String e) f.fz_trace));
    ]

(* Extension: the skip-list analogue of Figure 8 — SCOT optimistic searches
   vs Herlihy-Shavit eager searches (Table 1's skip-list rows). *)
let fig_skiplist cfg =
  sweep cfg
    ~title:
      "Extension: SkipList (SCOT optimistic) vs SkipList-HS (eager \
       searches), range 512"
    ~structures:[ "SkipList"; "SkipList-HS" ]
    ~schemes:all_schemes ~range:512 ()

(* The paper also measured 90/10 and 50i/50d mixes ("largely similar
   trends", SS 5); regenerate them for the two lists under HP and EBR. *)
let mixes cfg =
  List.concat_map
    (fun (label, mix) ->
      sweep cfg
        ~title:(Printf.sprintf "Workload mix %s, range 512" label)
        ~structures:[ "HMList"; "HList" ]
        ~schemes:[ Smr.Registry.find_exn "EBR"; Smr.Registry.find_exn "HP" ]
        ~range:512 ~mix ())
    [
      ("90r-5i-5d", Workload.read_dominated);
      ("50i-50d", Workload.write_only);
    ]

(* Everything, in paper order; returns the BENCH rows of every run so the
   binaries can emit a combined artifact.  Table 2 runs under [table2]. *)
let run_all ~table2:table2_cfg cfg =
  ignore (table1 ~duration:(cfg.duration /. 2.) ());
  let fig8a = fig8 cfg ~range:512 in
  let fig8b = fig8 cfg ~range:10_000 in
  let fig9a = fig9 cfg ~range:128 in
  let fig9b = fig9 cfg ~range:100_000 in
  let fig12_results = fig12 cfg in
  let table2_results = table2 table2_cfg in
  let abl_rec = ablation_recovery cfg in
  let abl_wf = ablation_wf cfg in
  let skiplist_results = fig_skiplist cfg in
  let mix_results = mixes cfg in
  (* The stalled-thread motivation (§1, §2.2.1): one of four domains parked
     mid-traversal, every scheme.  Each run lasts at least the chaos smoke's
     0.3 s, so the growth verdicts have samples to read. *)
  let stalled =
    chaos_matrix ~threads_list:[ 4 ] ~range:512
      ~duration:(Float.max 0.3 (cfg.duration /. 2.))
      ()
  in
  List.map Report.result_json
    (List.concat
       [
         fig8a; fig8b; fig9a; fig9b; fig12_results; table2_results; abl_rec;
         abl_wf; skiplist_results; mix_results;
       ])
  @ List.map chaos_run_json stalled
