(* SMR hot-path microbenchmarks (EXPERIMENTS.md "Hot-path costs").

   Three benches, all against the public scheme API only, so the same
   binary measures any internal representation of the runtime:

   - retire        T retiring domains in an alloc/retire/reclaim loop:
                   the per-operation cost the paper's Figures 6-9 budget.
   - retire-stall  same, but domain 0 is a slow reader that keeps an
                   operation open ~hold seconds at a time.  Its stale
                   reservation makes limbo lists grow (the robustness
                   scenario of Theorem 1), so the reclamation-pass cost
                   over a long limbo buffer dominates.
   - retire-allocs single-domain allocation audit: GC minor words per
                   [retire] call, batch kept below every pass threshold
                   so only the retire fast path is measured.
   - counter-incr  per-domain counter increments: Tcounter (padded
                   cells) vs a plain adjacent [Atomic.t array].
   - ops           end-to-end mixed-op throughput (50r/25i/25d, range 512)
                   per structure x scheme, through [Harness.Runner] with
                   latency timing off — the canonical throughput smoke.
   - op-allocs     single-domain allocation audit of the operation fast
                   paths: GC minor words per HList search / insert /
                   delete after warm-up.  Asserts 0.00 words per search for
                   EBR, HP, HE, IBR and DBR (disable with --no-assert).
   - tune          (via --tune, replaces the suite above) static
                   reclamation thresholds vs the adaptive controller on a
                   phase-shifting workload with a straggling reader; runs
                   carry "kind": "tune".

   Flags:
     --json PATH      write a schema-v1 BENCH artifact (runs carry
                      "kind": "micro"; see scripts/validate_bench.py)
     --schemes LIST   comma-separated (default EBR,IBR,HE,HLN,HP)
     --structures L   comma-separated, for ops (default HList,HMList,SkipList)
     --threads LIST   comma-separated domain counts (default 1,4)
     --duration SECS  per timed run (default 0.5)
     --hold SECS      reader hold time for retire-stall (default 0.002)
     --repeats N      timed-run repeats, median reported (default 1)
     --no-assert      report op-allocs without the zero-allocation check
     --smoke          CI preset: 0.1 s, threads 1,2, EBR+IBR+DBR, HList, 1 repeat
*)

module Json = Harness.Json

module Node = struct
  type t = { hdr : Memory.Hdr.t; mutable rc : Smr.Smr_intf.reclaimable }

  let hdr n = n.hdr
end

module NPool = Memory.Pool.Make (Node)

let now = Unix.gettimeofday

(* Fresh node with its reclaimable built once: recycling reuses both, so
   the benchmark loop itself allocates nothing per iteration. *)
let make_node pool () =
  let hdr = Memory.Hdr.create () in
  let n = { Node.hdr; rc = { Smr.Smr_intf.hdr; free = (fun _ -> ()) } } in
  n.Node.rc <-
    { Smr.Smr_intf.hdr; free = (fun tid' -> NPool.free pool ~tid:tid' n) };
  n

type run = {
  bench : string;
  scheme : string;
  threads : int;
  ops : int;
  duration : float;
  throughput : float;
  minor_words_per_op : float option;
  structure : string option; (* ops / op-allocs: the data structure *)
  op : string option; (* op-allocs: search / insert / delete *)
}

let run_json r =
  Json.Obj
    ([
       ("kind", Json.String "micro");
       ("bench", Json.String r.bench);
       ("scheme", Json.String r.scheme);
       ("threads", Json.Int r.threads);
       ("ops", Json.Int r.ops);
       ("duration", Json.Float r.duration);
       ("throughput", Json.Float r.throughput);
     ]
    @ (match r.minor_words_per_op with
      | Some w -> [ ("minor_words_per_op", Json.Float w) ]
      | None -> [])
    @ (match r.structure with
      | Some s -> [ ("structure", Json.String s) ]
      | None -> [])
    @
    match r.op with Some o -> [ ("op", Json.String o) ] | None -> [])

(* One timed retire/reclaim run.  [hold > 0] dedicates domain 0 to the
   slow-reader role (requires threads >= 2). *)
let retire_run (module S : Smr.Smr_intf.S) ~threads ~duration ~hold =
  let with_reader = hold > 0. && threads > 1 in
  let t = S.create ~threads ~slots:2 () in
  let pool = NPool.create ~threads () in
  let stop = Atomic.make false in
  let counts = Array.make threads 0 in
  let seed_hdr = Memory.Hdr.create () in
  let cell = Atomic.make (Some seed_hdr) in
  let retirer tid =
    let th = S.register t ~tid in
    let mk = make_node pool in
    (* Through the bracket, not raw [start_op]/[end_op]: a neutralizing
       scheme (DBR) raises [Neutralized] at [start_op] when a reclaimer
       aborted this lagging handle, and only the bracket restarts it. *)
    let alloc_retire =
      {
        Smr.Smr_intf.op0 =
          (fun _ ->
            let node = NPool.alloc pool ~tid mk in
            S.on_alloc th node.Node.hdr;
            S.retire th node.Node.rc);
      }
    in
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      for _ = 1 to 64 do
        S.with_op th alloc_retire
      done;
      n := !n + 64;
      if Atomic.get stop then continue := false
    done;
    S.flush th;
    counts.(tid) <- !n
  in
  (* The slow reader goes through the branded bracket like any structure
     code: protect the cell, then sit on the guard for [hold] seconds. *)
  let cell_desc =
    {
      Smr.Smr_intf.is_null = (fun v -> v = None);
      hdr = (function Some h -> h | None -> assert false);
    }
  in
  let reader_body =
    {
      Smr.Smr_intf.op1 =
        (fun tok rdr ->
          ignore (S.protect rdr tok ~slot:0 cell);
          let deadline = now () +. hold in
          while now () < deadline && not (Atomic.get stop) do
            ignore (Sys.opaque_identity 0)
          done);
    }
  in
  let reader tid =
    let th = S.register t ~tid in
    let rdr = S.reader th cell_desc in
    while not (Atomic.get stop) do
      S.with_op1 th reader_body rdr
    done
  in
  let doms =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            if with_reader && tid = 0 then reader tid else retirer tid))
  in
  let t0 = now () in
  Unix.sleepf duration;
  Atomic.set stop true;
  let elapsed = now () -. t0 in
  List.iter Domain.join doms;
  let ops = Array.fold_left ( + ) 0 counts in
  (ops, elapsed, float_of_int ops /. elapsed)

let retire_bench (module S : Smr.Smr_intf.S) ~threads ~duration ~hold ~repeats =
  let runs =
    List.init repeats (fun _ -> retire_run (module S) ~threads ~duration ~hold)
  in
  (* Median run by throughput (lower-middle for even repeat counts, like
     Experiments.median_result). *)
  let sorted = List.sort (fun (_, _, a) (_, _, b) -> compare a b) runs in
  let ops, elapsed, med = List.nth sorted ((List.length sorted - 1) / 2) in
  {
    bench = (if hold > 0. && threads > 1 then "retire-stall" else "retire");
    scheme = S.name;
    threads;
    ops;
    duration = elapsed;
    throughput = med;
    minor_words_per_op = None;
    structure = None;
    op = None;
  }

(* Minor words allocated per [retire] call on the fast path: batch sized
   below the limbo threshold and era frequency so no reclamation pass or
   dispatch runs inside the measured region. *)
let retire_allocs (module S : Smr.Smr_intf.S) =
  let batch = 512 in
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:(batch * 4) ~epoch_freq:max_int
      ~batch_size:(batch * 4) ~threads:1 ()
  in
  let t = S.create ~config ~threads:1 ~slots:1 () in
  let th = S.register t ~tid:0 in
  let nodes =
    Array.init batch (fun _ ->
        let h = Memory.Hdr.create () in
        S.on_alloc th h;
        { Smr.Smr_intf.hdr = h; free = (fun _ -> ()) })
  in
  (* Baseline: what a back-to-back pair of [Gc.minor_words] calls itself
     allocates (the boxed float results). *)
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let t0 = now () in
  let before = Gc.minor_words () in
  for i = 0 to batch - 1 do
    S.retire th nodes.(i)
  done;
  let after = Gc.minor_words () in
  let elapsed = now () -. t0 in
  S.flush th;
  let words = after -. before -. overhead in
  {
    bench = "retire-allocs";
    scheme = S.name;
    threads = 1;
    ops = batch;
    duration = elapsed;
    throughput = float_of_int batch /. elapsed;
    minor_words_per_op = Some (words /. float_of_int batch);
    structure = None;
    op = None;
  }

(* Per-domain counter increments: Tcounter vs plain adjacent atomics. *)
let counter_bench ~threads ~duration =
  let timed incr_fn =
    let stop = Atomic.make false in
    let counts = Array.make threads 0 in
    let worker tid =
      let n = ref 0 in
      while not (Atomic.get stop) do
        for _ = 1 to 512 do
          incr_fn tid
        done;
        n := !n + 512
      done;
      counts.(tid) <- !n
    in
    let doms =
      List.init threads (fun tid -> Domain.spawn (fun () -> worker tid))
    in
    let t0 = now () in
    Unix.sleepf duration;
    Atomic.set stop true;
    let elapsed = now () -. t0 in
    List.iter Domain.join doms;
    let ops = Array.fold_left ( + ) 0 counts in
    (ops, elapsed, float_of_int ops /. elapsed)
  in
  let tc = Memory.Tcounter.create ~threads in
  let plain = Array.init threads (fun _ -> Atomic.make 0) in
  let p_ops, p_el, p_tp = timed (fun tid -> Memory.Tcounter.incr tc ~tid) in
  let u_ops, u_el, u_tp = timed (fun tid -> Atomic.incr plain.(tid)) in
  [
    {
      bench = "counter-incr";
      scheme = "padded";
      threads;
      ops = p_ops;
      duration = p_el;
      throughput = p_tp;
      minor_words_per_op = None;
      structure = None;
      op = None;
    };
    {
      bench = "counter-incr";
      scheme = "plain";
      threads;
      ops = u_ops;
      duration = u_el;
      throughput = u_tp;
      minor_words_per_op = None;
      structure = None;
      op = None;
    };
  ]

(* End-to-end mixed-op throughput (the paper's 50r/25i/25d) through the
   full harness with latency timing off: a structure x scheme matrix cell
   whose medians EXPERIMENTS.md "Operation-path costs" tracks, and the
   smoke throughput number --compare checks across commits. *)
let ops_bench ~structure ~(scheme : Smr.Registry.scheme) ~threads ~duration
    ~repeats ~latency =
  let builder = Harness.Instance.find_builder_exn structure in
  let runs =
    List.init repeats (fun i ->
        Harness.Runner.run ~seed:(0xC0FFEE + i) ~measure_latency:latency
          ~builder ~scheme ~threads ~range:512 ~duration ())
  in
  let sorted =
    List.sort
      (fun (a : Harness.Runner.result) (b : Harness.Runner.result) ->
        compare a.throughput b.throughput)
      runs
  in
  let r = List.nth sorted ((List.length sorted - 1) / 2) in
  {
    bench = (if latency then "ops-timed" else "ops");
    scheme = r.scheme;
    threads;
    ops = r.ops;
    duration = r.duration;
    throughput = r.throughput;
    minor_words_per_op = None;
    structure = Some r.structure;
    op = None;
  }

(* Allocation audit of the operation fast paths: GC minor words per HList
   search / insert / delete on a single domain, with the SMR calibration
   pushed out (huge limbo threshold, era increments off) so no reclamation
   pass runs inside a measured region.  Warm-up fills the node pool's
   freelist and grows the limbo buffers to capacity, so the steady state
   being measured is the recycling path the long benchmarks run on. *)
let op_allocs_runs (module S : Smr.Smr_intf.S) ~assert_zero =
  let builder = Harness.Instance.find_builder_exn "HList" in
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:1_000_000 ~epoch_freq:max_int
      ~batch_size:1_000_000 ~threads:1 ()
  in
  let inst =
    builder.Harness.Instance.build (module S) ~threads:1 ~config ()
  in
  let tid = 0 in
  let keys = 128 in
  let odd = Array.init (keys / 2) (fun i -> (2 * i) + 1) in
  (* Warm-up: populate, churn the odd keys through retire/reclaim, touch
     every search path, and quiesce so the freelist is primed. *)
  for _ = 1 to 4 do
    for k = 0 to keys - 1 do
      ignore (inst.Harness.Instance.insert ~tid k)
    done;
    Array.iter (fun k -> ignore (inst.Harness.Instance.delete ~tid k)) odd;
    for k = 0 to keys - 1 do
      ignore (inst.Harness.Instance.search ~tid k)
    done;
    inst.Harness.Instance.quiesce ~tid
  done;
  (* Baseline: what a back-to-back pair of [Gc.minor_words] calls itself
     allocates (the boxed float results). *)
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let measure f =
    let t0 = now () in
    let before = Gc.minor_words () in
    f ();
    let after = Gc.minor_words () in
    (after -. before -. overhead, now () -. t0)
  in
  let search_batch = 4096 in
  let s_words, s_el =
    measure (fun () ->
        for i = 0 to search_batch - 1 do
          ignore (inst.Harness.Instance.search ~tid (i land (keys - 1)))
        done)
  in
  (* Insert/delete cycle the odd keys; the quiesce between rounds returns
     the retired nodes to the freelist and is not measured. *)
  let rounds = 8 in
  let i_words = ref 0. and i_el = ref 0. in
  let d_words = ref 0. and d_el = ref 0. in
  for _ = 1 to rounds do
    (* Index loops, not [Array.iter]: the iteration closure would cons
       inside the measured region. *)
    let w, el =
      measure (fun () ->
          for i = 0 to Array.length odd - 1 do
            ignore (inst.Harness.Instance.insert ~tid odd.(i))
          done)
    in
    i_words := !i_words +. w;
    i_el := !i_el +. el;
    let w, el =
      measure (fun () ->
          for i = 0 to Array.length odd - 1 do
            ignore (inst.Harness.Instance.delete ~tid odd.(i))
          done)
    in
    d_words := !d_words +. w;
    d_el := !d_el +. el;
    inst.Harness.Instance.quiesce ~tid
  done;
  let wr_batch = rounds * Array.length odd in
  let mk_run op n words el =
    {
      bench = "op-allocs";
      scheme = S.name;
      threads = 1;
      ops = n;
      duration = el;
      throughput = float_of_int n /. el;
      minor_words_per_op = Some (words /. float_of_int n);
      structure = Some "HList";
      op = Some op;
    }
  in
  let runs =
    [
      mk_run "search" search_batch s_words s_el;
      mk_run "insert" wr_batch !i_words !i_el;
      mk_run "delete" wr_batch !d_words !d_el;
    ]
  in
  let zero_alloc_schemes = [ "EBR"; "HP"; "HE"; "IBR"; "DBR" ] in
  if assert_zero && List.mem S.name zero_alloc_schemes then
    (* All three fast paths must stay allocation-free — the branded
       bracket ([with_op*] + [protect]/[Guard.deref]) must compile away
       entirely, on the update paths as well as the read path. *)
    List.iter
      (fun (op, words, n) ->
        let per_op = words /. float_of_int n in
        if per_op > 0.01 then begin
          Printf.eprintf
            "op-allocs: %s HList %s allocates %.3f minor words/op (expected \
             0.00)\n\
             %!"
            S.name op per_op;
          exit 1
        end)
      [
        ("search", s_words, search_batch);
        ("insert", !i_words, wr_batch);
        ("delete", !d_words, wr_batch);
      ];
  runs

(* Self-tuning threshold benchmark ("kind": "tune" in the BENCH artifact).

   One IBR run per reclamation mode on a phase-shifting workload
   (churn / read / drain cycling) with one extra participant stalled
   mid-traversal for the first 60% of the run, then resumed.  While the
   reader is stalled its reservation pins every retire, so any static
   threshold the pinned set outgrows degenerates to a full limbo scan per
   retire — the adaptive controller doubles out of that regime, which is
   exactly the behaviour this benchmark scores: adaptive throughput vs the
   best static whose peak unreclaimed gauge stayed within 1.1x of the
   adaptive run's (the "equal memory ceiling" comparison; larger statics
   buy throughput with memory, so they only count when the peaks are
   comparable). *)

type tune_run = {
  tn_scheme : string;
  tn_structure : string;
  tn_threads : int; (* workers + the stalled participant *)
  tn_mode : string; (* "static" | "adaptive" *)
  tn_threshold : int; (* static value, or the adaptive starting point *)
  tn_tuned : int; (* final controller threshold (= tn_threshold for static) *)
  tn_ops : int;
  tn_duration : float;
  tn_throughput : float;
  tn_max_unreclaimed : int;
  tn_sweeps : int; (* reclamation passes over the run (all handles) *)
  tn_scanned : int; (* limbo entries visited by those passes *)
  mutable tn_speedup : float option; (* adaptive: vs best qualifying static *)
}

let tune_run_json r =
  Json.Obj
    ([
       ("kind", Json.String "tune");
       ("scheme", Json.String r.tn_scheme);
       ("structure", Json.String r.tn_structure);
       ("threads", Json.Int r.tn_threads);
       ("mode", Json.String r.tn_mode);
       ("threshold", Json.Int r.tn_threshold);
       ("tuned_threshold", Json.Int r.tn_tuned);
       ("ops", Json.Int r.tn_ops);
       ("duration", Json.Float r.tn_duration);
       ("throughput", Json.Float r.tn_throughput);
       ("max_unreclaimed", Json.Int r.tn_max_unreclaimed);
       ("sweeps", Json.Int r.tn_sweeps);
       ("scanned", Json.Int r.tn_scanned);
     ]
    @
    match r.tn_speedup with
    | Some s -> [ ("speedup", Json.Float s) ]
    | None -> [])

let tune_one ~(scheme : Smr.Registry.scheme) ~structure ~threads ~duration
    ~phases ~range ~mode ~config ~threshold =
  let (module S : Smr.Smr_intf.S) = scheme in
  let builder = Harness.Instance.find_builder_exn structure in
  let workers = threads - 1 in
  let releaser = ref None in
  let r =
    Harness.Runner.run ~config ~workers ~phases ~check:false
      ~measure_latency:false
      ~prepare:(fun inst ->
        let tid = workers in
        inst.Harness.Instance.fault.stall ~tid ~point:"read";
        (* Resume the straggler at 60% of the run so the drain phases at
           the tail reclaim the backlog under every mode. *)
        releaser :=
          Some
            (Domain.spawn (fun () ->
                 Unix.sleepf (duration *. 0.6);
                 inst.Harness.Instance.fault.resume ~tid)))
      ~finish:(fun inst ->
        (match !releaser with Some d -> Domain.join d | None -> ());
        inst.Harness.Instance.fault.shutdown ())
      ~builder ~scheme ~threads ~range ~duration ()
  in
  let stat k =
    Option.value ~default:0
      (List.assoc_opt k r.Harness.Runner.scheme_stats)
  in
  let tuned =
    match
      List.assoc_opt "tuned_threshold" r.Harness.Runner.scheme_stats
    with
    | Some v -> v
    | None -> threshold
  in
  {
    tn_scheme = S.name;
    tn_structure = structure;
    tn_threads = threads;
    tn_mode = mode;
    tn_threshold = threshold;
    tn_tuned = tuned;
    tn_ops = r.ops;
    tn_duration = r.duration;
    tn_throughput = r.throughput;
    tn_max_unreclaimed = r.max_unreclaimed;
    tn_sweeps = stat "sweep_passes";
    tn_scanned = stat "sweep_scanned";
    tn_speedup = None;
  }

let tune_bench ~duration ~range ~statics ~oracles ~bounds () =
  let scheme = Smr.Registry.find_exn "IBR" in
  let structure = "SkipList" in
  let threads = 3 in
  let phases =
    Harness.Workload.phases_of_string "churn:0.2,read:0.1,drain:0.1"
  in
  let mk_config adaptive threshold =
    Smr.Smr_intf.make_config ~limbo_threshold:threshold ~epoch_freq:16
      ~batch_size:8 ~adaptive ~threads ()
  in
  let static_of mode t =
    tune_one ~scheme ~structure ~threads ~duration ~phases ~range ~mode
      ~config:(mk_config `Off t) ~threshold:t
  in
  let static_runs = List.map (static_of "static") statics in
  (* Oracle statics already know this workload's pinned-set size — a
     choice only hindsight (or a profiling run) provides.  They are in
     the artifact for transparency but outside the speedup comparison:
     the claim under test is "self-tuning vs a threshold picked at
     config time", not "vs the best threshold in hindsight". *)
  let oracle_runs = List.map (static_of "oracle") oracles in
  let lo, hi = bounds in
  let adaptive =
    tune_one ~scheme ~structure ~threads ~duration ~phases ~range
      ~mode:"adaptive"
      ~config:
        (mk_config (`On { Smr.Smr_intf.min_threshold = lo; max_threshold = hi }) lo)
      ~threshold:lo
  in
  (* "Equal memory ceiling": statics whose gauge peak stayed within 1.1x of
     the adaptive run's compete on throughput; the rest bought their speed
     with memory.  (Slow statics retire less, so their peaks come in at or
     below the adaptive peak naturally.) *)
  let ceiling =
    int_of_float (1.1 *. float_of_int adaptive.tn_max_unreclaimed)
  in
  let qualifying =
    List.filter (fun r -> r.tn_max_unreclaimed <= ceiling) static_runs
  in
  let best_static =
    match
      List.sort (fun a b -> compare b.tn_throughput a.tn_throughput)
        (if qualifying <> [] then qualifying else static_runs)
    with
    | best :: _ -> best
    | [] -> invalid_arg "tune_bench: empty statics list"
  in
  adaptive.tn_speedup <-
    Some (adaptive.tn_throughput /. best_static.tn_throughput);
  let runs = static_runs @ oracle_runs @ [ adaptive ] in
  Harness.Report.section
    "Self-tuning reclamation threshold (phase-shifting workload, one \
     straggler for the first 60%)";
  Harness.Report.table
    ~header:
      [ "mode"; "threshold"; "tuned"; "ops"; "ops/s"; "max_unreclaimed";
        "sweeps"; "scanned"; "speedup" ]
    (List.map
       (fun r ->
         [
           r.tn_mode;
           string_of_int r.tn_threshold;
           string_of_int r.tn_tuned;
           string_of_int r.tn_ops;
           Harness.Report.human r.tn_throughput;
           string_of_int r.tn_max_unreclaimed;
           string_of_int r.tn_sweeps;
           Harness.Report.human (float_of_int r.tn_scanned);
           (match r.tn_speedup with
           | Some s -> Printf.sprintf "%.2fx vs best static <= ceiling" s
           | None -> "-");
         ])
       runs);
  runs

let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "")

let () =
  let json_path = ref None in
  let duration = ref 0.5 in
  let hold = ref 0.002 in
  let repeats = ref 1 in
  let schemes = ref "EBR,IBR,HE,HLN,HP" in
  let structures = ref "HList,HMList,SkipList" in
  let threads = ref "1,4" in
  let smoke = ref false in
  let no_assert = ref false in
  let latency = ref false in
  let tune = ref false in
  Arg.parse
    [
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "PATH  write a schema-v1 BENCH artifact" );
      ("--duration", Arg.Set_float duration, "SECS  per timed run (0.5)");
      ("--hold", Arg.Set_float hold, "SECS  reader hold for retire-stall (0.002)");
      ("--repeats", Arg.Set_int repeats, "N  timed-run repeats, median kept (1)");
      ("--schemes", Arg.Set_string schemes, "LIST  comma-separated scheme names");
      ( "--structures",
        Arg.Set_string structures,
        "LIST  structures for the ops bench (HList,HMList,SkipList)" );
      ("--threads", Arg.Set_string threads, "LIST  comma-separated domain counts");
      ( "--no-assert",
        Arg.Set no_assert,
        " report op-allocs without the zero-allocation check" );
      ( "--latency",
        Arg.Set latency,
        " run ops with per-op latency timing on (bench \"ops-timed\"), to\n\
        \          measure the cost of the timed loop itself" );
      ( "--tune",
        Arg.Set tune,
        " run only the self-tuning threshold benchmark (static sweep vs \
         adaptive; --smoke shrinks it to CI size)" );
      ("--smoke", Arg.Set smoke, " CI preset: quick run");
    ]
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "bench/micro/micro.exe [flags]";
  if !smoke then begin
    duration := 0.1;
    threads := "1,2";
    schemes := "EBR,IBR,DBR";
    structures := "HList";
    repeats := 1
  end;
  if !tune then begin
    (* The tune bench is its own suite: run it and stop.  The full sweep
       needs a few seconds per mode for the controller to show separation;
       smoke just exercises the machinery and the artifact schema. *)
    let duration = if !smoke then 0.4 else max !duration 2.0 in
    (* The static grid brackets the configuration defaults (32 and 128):
       thresholds someone would plausibly ship without profiling this
       workload.  The oracle pair sits at and above the stalled pinned-set
       knee the controller has to discover. *)
    let statics = if !smoke then [ 16; 256 ] else [ 16; 64; 256; 1024 ] in
    let oracles = if !smoke then [] else [ 4096; 8192 ] in
    let range = if !smoke then 512 else 8192 in
    let bounds = (16, 65_536) in
    let runs = tune_bench ~duration ~range ~statics ~oracles ~bounds () in
    (match !json_path with
    | None -> ()
    | Some path ->
        Harness.Report.write_bench_doc ~path ~name:"tune"
          (List.map tune_run_json runs);
        Printf.printf "wrote %s (%d runs)\n%!" path (List.length runs));
    exit 0
  end;
  let schemes =
    List.map (fun n -> Smr.Registry.find_exn n) (split_commas !schemes)
  in
  let structure_names = split_commas !structures in
  let thread_counts = List.map int_of_string (split_commas !threads) in
  let results = ref [] in
  let push r = results := r :: !results in
  List.iter
    (fun (module S : Smr.Smr_intf.S) ->
      List.iter
        (fun tcount ->
          push
            (retire_bench
               (module S)
               ~threads:tcount ~duration:!duration ~hold:0. ~repeats:!repeats);
          if tcount > 1 then
            push
              (retire_bench
                 (module S)
                 ~threads:tcount ~duration:!duration ~hold:!hold
                 ~repeats:!repeats))
        thread_counts;
      push (retire_allocs (module S)))
    schemes;
  List.iter (fun tcount ->
      List.iter push (counter_bench ~threads:tcount ~duration:!duration))
    thread_counts;
  List.iter
    (fun structure ->
      List.iter
        (fun scheme ->
          List.iter
            (fun tcount ->
              push
                (ops_bench ~structure ~scheme ~threads:tcount
                   ~duration:!duration ~repeats:!repeats ~latency:!latency))
            thread_counts)
        schemes)
    structure_names;
  List.iter
    (fun (module S : Smr.Smr_intf.S) ->
      List.iter push (op_allocs_runs (module S) ~assert_zero:(not !no_assert)))
    schemes;
  let results = List.rev !results in
  Harness.Report.section "SMR hot-path microbenchmarks";
  Harness.Report.table
    ~header:
      [ "bench"; "struct"; "op"; "scheme"; "threads"; "ops"; "ops/s"; "mw/op" ]
    (List.map
       (fun r ->
         [
           r.bench;
           Option.value r.structure ~default:"-";
           Option.value r.op ~default:"-";
           r.scheme;
           string_of_int r.threads;
           string_of_int r.ops;
           Harness.Report.human r.throughput;
           (match r.minor_words_per_op with
           | Some w -> Printf.sprintf "%.2f" w
           | None -> "-");
         ])
       results);
  match !json_path with
  | None -> ()
  | Some path ->
      Harness.Report.write_bench_doc ~path ~name:"micro"
        (List.map run_json results);
      Printf.printf "wrote %s (%d runs)\n%!" path (List.length results)
