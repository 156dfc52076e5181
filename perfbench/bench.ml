(* The repository benchmark: one workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --calibrate

   Load: a closed loop of {!Target.clients} client(s), each drawing its
   next request from the seeded generator only after the previous one
   returned.  Client 0 runs on the main domain and also keeps time,
   between its own requests: it ends the warm-up, moves the window counter
   and samples the unreclaimed-node gauge every [gauge_every] requests.
   Any further client gets a domain of its own.

   --trace 0 measures the end-to-end metrics on the raw scheme.  The run
   is split into rounds, one per set-up of the workload (each with its own
   seed, so its own prefill and heap layout): a 0.2 s warm-up, then an
   equal share of [seconds] measured in 100 ms windows.  Throughput and
   latency percentiles are computed per window, and the run reports their
   trimmed mean over the windows of all its rounds.
   --trace 1 splits [seconds] between an untraced half (the reference for
   the tracing overhead and the GC counts) and a traced half on a fresh
   set-up whose scheme is wrapped by {!Perfbench.Traced}; it reports the
   per-layer metrics.  Either way every set-up ends with the correctness
   gate and the run prints one JSON object as its last line; the exit code
   is 1 when a check failed.

   --calibrate prints the uncontended per-call floors of every scheme and
   how its retire path scales from one domain to two. *)

open Perfbench

let warmup_s = 0.2
let window_s = 0.1
let gauge_every = 64

let median_f xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* {2 The client} *)

type acc = {
  hists : Hist.t array;  (* latency of every measured request, ns, by window *)
  win_ops : int array;  (* structure ops (keys answered), by window *)
  mutable ops : int;  (* measured structure ops *)
  mutable reqs : int;  (* measured requests *)
  mutable attempted : int;  (* whole round, warm-up included *)
  mutable failed : int;
  mutable uaf : int;
  mutable first_error : string option;
  mutable ins_ok : int;  (* whole round: the size check needs every update *)
  mutable del_ok : int;
  mutable upd : int;  (* measured update requests *)
  mutable upd_ok : int;
  mutable words : float;  (* minor words allocated while measuring *)
  mutable snap : int array option;  (* trace counters at the end *)
}

(* The phase is the index of the current window while measuring. *)
let warming = -1
let stopped = -2

(* Runs requests until [tick], called with each request's end time and
   the phase the request ran in, returns [stopped]. *)
let client (target : Target.t) ~seed ~nwin ~traced ~tick =
  let client = target.Target.client ~tid:0 ~seed in
  let acc =
    {
      hists = Array.init nwin (fun _ -> Hist.create ());
      win_ops = Array.make nwin 0;
      ops = 0;
      reqs = 0;
      attempted = 0;
      failed = 0;
      uaf = 0;
      first_error = None;
      ins_ok = 0;
      del_ok = 0;
      upd = 0;
      upd_ok = 0;
      words = 0.;
      snap = None;
    }
  in
  let r = Trace.recorder 0 in
  let words0 = ref 0. in
  let rec loop p =
    if p <> stopped then begin
      let kind = client.Target.draw () in
      let t0 = Clock.now () in
      let sid = if traced then Trace.request_begin r kind else 0 in
      let ok =
        match client.Target.exec () with
        | ok -> ok
        | exception e ->
            acc.failed <- acc.failed + 1;
            (match e with
            | Memory.Fault.Use_after_free _ -> acc.uaf <- acc.uaf + 1
            | _ -> ());
            if acc.first_error = None then
              acc.first_error <- Some (Printexc.to_string e);
            false
      in
      let t1 = Clock.now () in
      acc.attempted <- acc.attempted + 1;
      if ok then
        if kind = Trace.k_insert then acc.ins_ok <- acc.ins_ok + 1
        else acc.del_ok <- acc.del_ok + 1;
      if p >= 0 then begin
        let sops = target.Target.struct_ops.(kind) in
        if traced then Trace.request_end r sid kind t0 t1 ~struct_ops:sops;
        Hist.add acc.hists.(p) (t1 - t0);
        acc.win_ops.(p) <- acc.win_ops.(p) + sops;
        acc.ops <- acc.ops + sops;
        acc.reqs <- acc.reqs + 1;
        if kind <> Trace.k_read then begin
          acc.upd <- acc.upd + 1;
          if ok then acc.upd_ok <- acc.upd_ok + 1
        end
      end;
      let q = tick t1 p in
      if p = warming && q = 0 then begin
        if traced then Trace.reset r;
        words0 := Gc.minor_words ()
      end;
      loop q
    end
  in
  loop warming;
  acc.words <- Gc.minor_words () -. !words0;
  if traced then acc.snap <- Some (Trace.snapshot r);
  acc

(* {2 One measurement: warm-up, then measured windows} *)

(* What one window measured.  The gauge is not kept per window: it is
   sampled every [gauge_every] requests over the first [gauge_requests]
   requests of the set-up, warm-up included, so its mean depends on the
   work done and not on how fast the host ran it.  On the store it grows
   with every request until teardown, so a mean over time would have moved
   with throughput. *)
type window = {
  ops_s : float;  (* structure ops per second *)
  p50 : float;  (* us; nan when the window has no request *)
  p99 : float;
}

type measured = {
  acc : acc;
  windows : window list;
  elapsed_s : float;  (* measured period *)
  start_ns : int;
  samples : int;  (* timed requests *)
  gauge_sum : float;  (* over the first [gauge_requests] requests *)
  gauge_n : int;
  gauge_peak : int;  (* over the measured period *)
  stats0 : (string * int) list;
  stats1 : (string * int) list;
  restarts : int;
  shard_ops : int array;  (* per-shard requests while measuring *)
  majors : int;
}

let measure (target : Target.t) ~gauge_requests ~traced ~seed ~seconds =
  let nwin = max 1 (int_of_float (Float.round (seconds /. window_s))) in
  let win_ns = int_of_float (window_s *. 1e9) in
  let starts = Array.make (nwin + 1) 0 in
  let gsum = ref 0 and gn = ref 0 and peak = ref 0 in
  let stats0 = ref [] and restarts0 = ref 0 and shards0 = ref [||] in
  let majors0 = ref 0 in
  let warm_until = Clock.now () + int_of_float (warmup_s *. 1e9) in
  let reqs = ref 0 in
  let tick now p =
    incr reqs;
    if !reqs land (gauge_every - 1) = 0 then begin
      let g = target.unreclaimed () in
      if !reqs <= gauge_requests then begin
        gsum := !gsum + g;
        incr gn
      end;
      if p >= 0 && g > !peak then peak := g
    end;
    if p = warming then
      if now < warm_until then p
      else begin
        stats0 := target.scheme_stats ();
        restarts0 := target.restarts ();
        shards0 := target.shard_ops ();
        majors0 := (Gc.quick_stat ()).Gc.major_collections;
        starts.(0) <- Clock.now ();
        0
      end
    else if now - starts.(p) < win_ns then p
    else begin
      starts.(p + 1) <- now;
      if p + 1 < nwin then p + 1 else stopped
    end
  in
  let acc = client target ~seed ~nwin ~traced ~tick in
  let majors = (Gc.quick_stat ()).Gc.major_collections - !majors0 in
  let shards1 = target.shard_ops () in
  let window w =
    let h = acc.hists.(w) in
    {
      ops_s = fi acc.win_ops.(w) /. Clock.seconds_between starts.(w) starts.(w + 1);
      p50 = Hist.quantile h 0.5 /. 1e3;
      p99 = Hist.quantile h 0.99 /. 1e3;
    }
  in
  {
    acc;
    windows = List.init nwin window;
    elapsed_s = Clock.seconds_between starts.(0) starts.(nwin);
    start_ns = starts.(0);
    samples = Array.fold_left (fun s h -> s + Hist.count h) 0 acc.hists;
    gauge_sum = fi !gsum;
    gauge_n = !gn;
    gauge_peak = !peak;
    stats0 = !stats0;
    stats1 = target.scheme_stats ();
    restarts = target.restarts () - !restarts0;
    shard_ops = Array.mapi (fun i v -> v - !shards0.(i)) shards1;
    majors;
  }

let total f ms = List.fold_left (fun s m -> s + f m.acc) 0 ms

(* End-to-end figures over one or more measurements: the mean over all
   their windows, leaving out the lowest and the highest tenth.  The
   shared host's speed drifts by up to 1.5x over seconds to minutes, so a
   run's figure is an average over that drift; the trim keeps the rare
   window the host all but stopped from moving it.  The median of the
   windows spread more over six runs of the store, whose windows fall into
   two groups about 1.6x apart: it jumps from one group to the other. *)
let trim = 0.1

let over_windows f ms =
  let a =
    Array.of_list
      (List.filter
         (fun x -> not (Float.is_nan x))
         (List.concat_map (fun m -> List.map f m.windows) ms))
  in
  Array.sort compare a;
  let n = Array.length a in
  let k = int_of_float (trim *. fi n) in
  if n = 0 then Float.nan
  else begin
    let s = ref 0. in
    for i = k to n - k - 1 do
      s := !s +. a.(i)
    done;
    !s /. fi (n - (2 * k))
  end

let ops_per_s ms = over_windows (fun w -> w.ops_s) ms
let windows ms = List.fold_left (fun s m -> s + List.length m.windows) 0 ms

(* {2 Set-up and the correctness gate} *)

(* One set-up (create and prefill) from a collected heap, timed. *)
let build (spec : Target.spec) scheme ~seed =
  Gc.full_major ();
  let t0 = Clock.now () in
  let t = spec.build scheme ~seed in
  (Clock.seconds_between t0 (Clock.now ()), t)

(* Round [r] of a run gets its own seed, hence its own prefill and heap
   layout.  With two client domains, throughput of the list under HP
   differed by up to 1.5x between seeds but not between repeats of one
   seed, so one layout per run made runs disagree; a run spans several. *)
let round_seed seed r = (seed * 1000) + r

type check = { name : string; ok : bool; detail : string }

let gate (target : Target.t) m =
  let failed = m.acc.failed and uaf = m.acc.uaf in
  let first = Option.value ~default:"-" m.acc.first_error in
  let invariants =
    match target.check_invariants () with
    | () -> { name = "invariants"; ok = true; detail = "check_invariants passed" }
    | exception e ->
        { name = "invariants"; ok = false; detail = Printexc.to_string e }
  in
  let ins = m.acc.ins_ok and del = m.acc.del_ok in
  let expect = target.prefilled + ins - del in
  let size = target.size () in
  let members = target.members () in
  target.teardown ();
  let left = target.unreclaimed () in
  [
    {
      name = "no-use-after-free";
      ok = uaf = 0;
      detail = Printf.sprintf "%d use-after-free faults" uaf;
    };
    {
      name = "no-failed-ops";
      ok = failed = 0;
      detail = Printf.sprintf "%d ops raised (first: %s)" failed first;
    };
    invariants;
    {
      name = "final-size";
      ok = size = expect;
      detail =
        Printf.sprintf "size %d, expected prefill %d + inserts %d - deletes %d = %d"
          size target.prefilled ins del expect;
    };
    {
      name = "lookups-match-size";
      ok = members = size;
      detail = Printf.sprintf "%d keys found by lookup, size %d" members size;
    };
    {
      name = "drained-after-teardown";
      ok = (not target.robust) || left = 0;
      detail = Printf.sprintf "unreclaimed %d after teardown" left;
    };
  ]

(* {2 Output} *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

let print_rows rows =
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "  %-28s %16.4f %-6s %s\n" name v unit note)
    rows

let print_checks ~label checks =
  List.iter
    (fun c ->
      Printf.printf "  %s check %-24s %s  %s\n" label c.name
        (if c.ok then "ok  " else "FAIL")
        c.detail)
    checks

let lookup name (xs : (string * int) list) =
  Option.value ~default:0 (List.assoc_opt name xs)

let stat_delta m name = lookup name m.stats1 - lookup name m.stats0

(* {2 --trace 0: end-to-end} *)

let end_to_end (spec : Target.spec) scheme ~seed ~seconds =
  let rounds = spec.setups in
  let runs =
    List.init rounds (fun r ->
        let seed = round_seed seed r in
        let secs, target = build spec scheme ~seed in
        let m = measure target ~gauge_requests:spec.gauge_requests ~traced:false ~seed
            ~seconds:(seconds /. fi rounds)
        in
        (secs, m, gate target m))
  in
  let ms = List.map (fun (_, m, _) -> m) runs in
  let setup_s = median_f (List.map (fun (s, _, _) -> s) runs) in
  let ops = ops_per_s ms in
  let samples = List.fold_left (fun s m -> s + m.samples) 0 ms in
  let nw = windows ms in
  let p50 = over_windows (fun w -> w.p50) ms
  and p99 = over_windows (fun w -> w.p99) ms in
  let gauge =
    ratio
      (List.fold_left (fun s m -> s +. m.gauge_sum) 0. ms)
      (fi (List.fold_left (fun s m -> s + m.gauge_n) 0 ms))
  in
  let attempted = total (fun a -> a.attempted) ms in
  let failed = total (fun a -> a.failed) ms in
  let n = Printf.sprintf in
  print_rows
    [
      ( "ops_per_s", ops, "1/s",
        n "trimmed mean of %d windows' structure ops (keys answered) per s; %.2f s in %d set-ups"
          nw
          (List.fold_left (fun s m -> s +. m.elapsed_s) 0. ms)
          rounds );
      ( "latency_p50_us", p50, "us",
        n "trimmed mean of %d windows' p50; %d samples" nw samples );
      ( "latency_p99_us", p99, "us",
        n "trimmed mean of %d windows' p99; %d samples, %d beyond" nw samples
          (samples / 100) );
      ( "unreclaimed_avg", gauge, "count",
        n "mean of %d samples, one every %d requests in the first %d of each set-up"
          (List.fold_left (fun s m -> s + m.gauge_n) 0 ms)
          gauge_every spec.gauge_requests );
      ( "failed_op_ratio", ratio (fi failed) (fi attempted), "ratio",
        n "%d of %d requests (the JSON's failed/attempted)" failed attempted );
      ("setup_s", setup_s, "s", n "median of %d set-ups" rounds);
    ];
  List.iteri
    (fun r (secs, m, _) ->
      Printf.printf "  round %2d  set-up %.4f s  ops/s %.0f  p50 %.3f  p99 %.3f  gauge %.1f\n" r
        secs (ops_per_s [ m ]) (over_windows (fun w -> w.p50) [ m ])
        (over_windows (fun w -> w.p99) [ m ]) (ratio m.gauge_sum (fi m.gauge_n)))
    runs;
  List.iteri
    (fun r (_, _, checks) -> print_checks ~label:(n "round %d" r) checks)
    runs;
  let correct =
    List.for_all (fun (_, _, checks) -> List.for_all (fun c -> c.ok) checks) runs
  in
  print_result ~correct ~attempted ~failed
    [
      ("ops_per_s", ops, "1/s");
      ("latency_p50_us", p50, "us");
      ("latency_p99_us", p99, "us");
      ("unreclaimed_avg", gauge, "count");
      ("setup_s", setup_s, "s");
    ];
  correct

(* {2 --trace 1: per-layer} *)

let out_dir = ".perfbench_out"

(* Per-kind read metrics are printed but left out of the JSON result: the
   tree workload has no reads, and a time that reads 0 on every run is not
   a measurement.  [scot.op_ns] and [store.request_ns] cover all kinds. *)
let table_only =
  [ "scot.op_ns.search"; "store.request_ns.get_many"; "scot.restarts_per_kop" ]

(* Rounds of a traced run: fewer than an end-to-end run's, since each
   round builds twice (untraced and traced). *)
let trace_rounds (spec : Target.spec) = max 1 (spec.setups / 4)

let per_layer (spec : Target.spec) scheme ~seed ~seconds =
  let rounds = trace_rounds spec in
  let share = seconds /. 2. /. fi rounds in
  let wrapped = Traced.wrap scheme in
  let tids = [ 0 ] in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let span_file =
    Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.tsv" spec.name seed)
  in
  let spans = ref 0 in
  let runs =
    List.init rounds (fun r ->
        let seed = round_seed seed r in
        let mu, checks_raw =
          let _, raw = build spec scheme ~seed in
          let mu = measure raw ~gauge_requests:spec.gauge_requests ~traced:false ~seed
              ~seconds:share
          in
          (mu, gate raw mu)
        in
        let _, target = build spec wrapped ~seed in
        let m = measure target ~gauge_requests:spec.gauge_requests ~traced:true ~seed
            ~seconds:share
        in
        (* The rings hold the last round's spans; write them before the
           gate's own lookups add more. *)
        if r = rounds - 1 then
          spans := Trace.dump ~tids ~origin:m.start_ns span_file;
        (mu, checks_raw, m, gate target m))
  in
  let mus = List.map (fun (mu, _, _, _) -> mu) runs in
  let ms = List.map (fun (_, _, m, _) -> m) runs in
  let checks =
    List.concat_map (fun (_, raw, _, traced) -> raw @ traced) runs
  in
  let snaps = List.filter_map (fun m -> m.acc.snap) ms in
  let floors = Calib.floors scheme in
  let c i = fi (Trace.sum snaps i) in
  let ck i k = c (i + k) in
  let by_kind i = ck i Trace.k_read +. ck i Trace.k_insert +. ck i Trace.k_delete in
  let clock = fi (Lazy.force Clock.overhead_ns) in
  let requests = by_kind Trace.c_requests in
  let sops = by_kind Trace.c_kind_struct_ops in
  let request_ns = by_kind Trace.c_request_ns in
  let brackets = c Trace.c_brackets and bracket_ns = c Trace.c_bracket_ns in
  let body_ns = c Trace.c_body_ns in
  let protects = c Trace.c_protects in
  let protect_ns =
    Float.max 0. (ratio (c Trace.c_protect_ns) (c Trace.c_protect_samples) -. clock)
  in
  let retires = c Trace.c_retires and retire_total = c Trace.c_retire_ns in
  let op_ns k = ratio (ck Trace.c_kind_bracket_ns k) (ck Trace.c_kind_struct_ops k) in
  let req_ns k = ratio (ck Trace.c_request_ns k) (ck Trace.c_requests k) in
  let delta name = fi (List.fold_left (fun s m -> s + stat_delta m name) 0 ms) in
  let passes = delta "sweep_passes" in
  let bracket_restarts = c Trace.c_body_runs -. brackets in
  let restarts = fi (List.fold_left (fun s m -> s + m.restarts) 0 ms) in
  let shard_imbalance =
    match ms with
    | m0 :: _ when Array.length m0.shard_ops > 0 ->
        let s =
          Array.init (Array.length m0.shard_ops) (fun i ->
              List.fold_left (fun acc m -> acc + m.shard_ops.(i)) 0 ms)
        in
        let mx = Array.fold_left max 0 s and tot = Array.fold_left ( + ) 0 s in
        ratio (fi mx) (fi tot /. fi (Array.length s))
    | _ -> 1.
  in
  let peak = List.fold_left (fun p m -> max p m.gauge_peak) 0 ms in
  let untraced_reqs = fi (total (fun a -> a.reqs) mus) in
  let words =
    List.fold_left (fun s mu -> s +. mu.acc.words) 0. mus
  in
  let majors = fi (List.fold_left (fun s mu -> s + mu.majors) 0 mus) in
  let untraced_ops = ops_per_s mus and traced_ops = ops_per_s ms in
  let rows =
    [
      ("smr.protects_per_op", ratio protects requests, "count", "per request");
      ( "smr.protect_ns", protect_ns, "ns",
        Printf.sprintf "1 in %d calls timed, %.0f ns clock read subtracted"
          Trace.protect_period clock );
      ("smr.brackets_per_op", ratio brackets requests, "count", "per request");
      ( "smr.bracket_overhead_ns", ratio (bracket_ns -. body_ns) brackets, "ns",
        "bracket span minus body span" );
      ("smr.retires_per_op", ratio retires requests, "count", "per request");
      ( "smr.retire_ns", Float.max 0. (ratio retire_total retires -. clock), "ns",
        "every call, passes included" );
      ( "smr.sweep_passes_per_kop", ratio passes (requests /. 1e3), "count",
        "scheme_stats sweep_passes delta" );
      ( "smr.scanned_per_reclaimed",
        ratio (delta "sweep_scanned") (delta "sweep_reclaimed"), "ratio", "" );
      ("smr.low_hit_pass_ratio", ratio (delta "sweep_low_hit") passes, "ratio", "");
      ("smr.unreclaimed_peak", fi peak, "count", "traced half");
      ( "scot.op_ns", ratio (by_kind Trace.c_kind_bracket_ns) sops, "ns",
        "bracket span per structure op" );
      ("scot.op_ns.search", op_ns Trace.k_read, "ns", "");
      ("scot.op_ns.insert", op_ns Trace.k_insert, "ns", "");
      ("scot.op_ns.delete", op_ns Trace.k_delete, "ns", "");
      ( "scot.traversal_ns",
        ratio (body_ns -. (protects *. protect_ns) -. retire_total) sops, "ns",
        "body minus protect and retire, per structure op" );
      ( "scot.restarts_per_kop",
        ratio (restarts +. bracket_restarts) (sops /. 1e3), "count",
        "per 1000 structure ops" );
      ( "scot.update_success_ratio",
        ratio (fi (total (fun a -> a.upd_ok) ms)) (fi (total (fun a -> a.upd) ms)),
        "ratio", "" );
      ("memory.node_allocs_per_op", ratio (c Trace.c_allocs) requests, "count", "on_alloc calls");
      ("memory.minor_words_per_op", ratio words untraced_reqs, "words", "untraced half");
      ("memory.major_collections", majors, "count", "untraced half");
      ("store.request_ns", ratio request_ns requests, "ns", "request span");
      ("store.request_ns.get_many", req_ns Trace.k_read, "ns", "read requests");
      ("store.request_ns.put", req_ns Trace.k_insert, "ns", "");
      ("store.request_ns.delete", req_ns Trace.k_delete, "ns", "");
      ( "store.self_ns", ratio (request_ns -. bracket_ns) requests, "ns",
        "request span minus its brackets" );
      ("store.brackets_per_request", ratio brackets requests, "count", "");
      ("store.keys_per_bracket", ratio sops brackets, "count", "");
      ("store.shard_imbalance", shard_imbalance, "ratio", "max/mean requests per shard");
      ( "trace.overhead_ratio", ratio untraced_ops traced_ops, "ratio",
        Printf.sprintf "untraced %.0f / traced %.0f ops/s" untraced_ops traced_ops );
      ( "residual_share", ratio (request_ns -. bracket_ns) request_ns, "ratio",
        "request time outside any bracket" );
      ("calib.bracket_ns", floors.Calib.bracket_ns, "ns", "empty with_op, 1 domain");
      ("calib.protect_ns", floors.Calib.protect_ns, "ns", "one protect, 1 domain");
      ("calib.retire_ns", floors.Calib.retire_ns, "ns", "one retire below threshold");
    ]
  in
  print_rows rows;
  Printf.printf "  spans: %d written to %s; %d set-ups per half\n" !spans span_file
    rounds;
  List.iteri
    (fun r (_, raw, _, traced) ->
      print_checks ~label:(Printf.sprintf "round %d untraced" r) raw;
      print_checks ~label:(Printf.sprintf "round %d traced" r) traced)
    runs;
  let correct = List.for_all (fun c -> c.ok) checks in
  let attempted = total (fun a -> a.attempted) (mus @ ms) in
  let failed = total (fun a -> a.failed) (mus @ ms) in
  print_result ~correct ~attempted ~failed
    (List.filter_map
       (fun (name, v, unit, _) ->
         if List.mem name table_only then None else Some (name, v, unit))
       rows);
  correct

(* {2 --calibrate} *)

let calibrate () =
  (* The two-domain retire loop depends on how the two domains happen to be
     scheduled against each other, so it is repeated and shown as median
     [min-max]. *)
  let repeats = 5 in
  let loop s ~domains =
    let xs = List.init repeats (fun _ -> Calib.retire_loop s ~domains) in
    (median_f xs, List.fold_left min infinity xs, List.fold_left max 0. xs)
  in
  Printf.printf "%-6s %10s %10s %10s %22s %22s %6s\n" "scheme" "bracket_ns"
    "protect_ns" "retire_ns" "retire_loop_1d_ns" "retire_loop_2d_ns" "2d/1d";
  List.iter
    (fun ((module S : Smr.Smr_intf.S) as s) ->
      let f = Calib.floors s in
      let m1, lo1, hi1 = loop s ~domains:1 and m2, lo2, hi2 = loop s ~domains:2 in
      Printf.printf "%-6s %10.1f %10.1f %10.1f %8.1f [%5.0f-%5.0f] %8.1f [%5.0f-%5.0f] %6.2f\n%!"
        S.name f.Calib.bracket_ns f.protect_ns f.retire_ns m1 lo1 hi1 m2 lo2 hi2
        (ratio m2 m1))
    Smr.Registry.all

(* {2 Entry point} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let calib = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run");
      ("--seed", Arg.Set_int seed, "N  seed for every generated input");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
      ("--calibrate", Arg.Set calib, " print per-scheme floors and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !calib then calibrate ()
  else
    match Target.find !workload with
    | None ->
        Printf.eprintf "unknown workload %S (have: %s)\n" !workload
          (String.concat ", " (List.map (fun s -> s.Target.name) Target.all));
        exit 2
    | Some spec ->
        let scheme = Smr.Registry.find_exn spec.scheme in
        Printf.printf "workload %s  scheme %s  seed %d  seconds %g  trace %d\n  %s\n%!"
          spec.name spec.scheme !seed !seconds !trace spec.system;
        let ok =
          if !trace = 0 then end_to_end spec scheme ~seed:!seed ~seconds:!seconds
          else per_layer spec scheme ~seed:!seed ~seconds:!seconds
        in
        exit (if ok then 0 else 1)
