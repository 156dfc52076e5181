(* scotbench: command-line driver that regenerates every table and figure of
   the paper's evaluation (Section 5), plus the ablations.

   Examples:
     scotbench all --quick
     scotbench fig8 --range 512 --threads 1,2,4,8 --duration 2
     scotbench run --structure HList --scheme HP --threads 4 --range 10000
     scotbench all --quick --json BENCH_all.json

   [--json PATH] writes one machine-readable BENCH artifact covering every
   run of the invoked command (schema documented in EXPERIMENTS.md).  Each
   command takes only the flags it reads. *)

open Cmdliner

(* [-t] and [-d] are optional: each command documents what their absence
   means, and [--quick]/[--smoke] fill in only the values left out. *)
let threads_arg ~absent =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "t"; "threads" ] ~absent ~docv:"N,N,..."
        ~doc:"Comma-separated list of thread counts.")

let duration_arg ~absent =
  Arg.(
    value
    & opt (some float) None
    & info [ "d"; "duration" ] ~absent ~docv:"SEC"
        ~doc:"Seconds per benchmark run (paper: 10).")

let repeats_arg =
  let doc = "Independent runs per data point; the median is reported (paper: 5)." in
  Arg.(value & opt int 1 & info [ "r"; "repeats" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Write a single machine-readable BENCH JSON artifact covering every run \
     of this command to $(docv) (schema: EXPERIMENTS.md)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let quick_arg =
  let doc =
    "Short runs with reduced parameters (smoke-level) for every value not \
     given explicitly."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* [--smoke]: the CI-sized preset of a soak or panel, described per command. *)
let smoke_arg doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let fig12_range_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fig12-range" ] ~docv:"N"
        ~absent:"1000000, or 100000 with $(b,--quick)"
        ~doc:"Key range for Figure 12 (paper: 50,000,000).")

let preset quick =
  if quick then Harness.Experiments.quick_cfg
  else Harness.Experiments.default_cfg

(* Table 2's defaults: restart statistics need enough contention time to
   be meaningful, so runs last at least 2 s and the thread list reaches 8
   unless [-d] / [-t] say otherwise. *)
let table2_preset quick =
  let base = preset quick in
  {
    base with
    Harness.Experiments.duration = Float.max base.duration 2.0;
    threads = List.sort_uniq compare (base.threads @ [ 8 ]);
  }

(* The sweep flags, resolved over a preset (a function of [--quick]): each
   value given on the command line wins, the preset fills in the rest.
   [--help] shows [preset]'s values.  Only the commands that run Figure 12
   take [--fig12-range]. *)
let sweep_term ?(fig12 = false) ?(preset = preset) () =
  let absent show field =
    let full = show (field (preset false))
    and quick = show (field (preset true)) in
    if full = quick then full
    else Printf.sprintf "%s, or %s with $(b,--quick)" full quick
  in
  let make threads duration repeats quick fig12_range preset =
    let (base : Harness.Experiments.cfg) = preset quick in
    {
      Harness.Experiments.threads = Option.value threads ~default:base.threads;
      duration = Option.value duration ~default:base.duration;
      repeats;
      fig12_range = Option.value fig12_range ~default:base.fig12_range;
    }
  in
  Term.(
    const make
    $ threads_arg
        ~absent:
          (absent
             (fun ts -> String.concat "," (List.map string_of_int ts))
             (fun c -> c.Harness.Experiments.threads))
    $ duration_arg
        ~absent:(absent (Printf.sprintf "%g") (fun c -> c.duration))
    $ repeats_arg $ quick_arg
    $ if fig12 then fig12_range_arg else const None)

(* The [--scheme] docs list the registry, so a new scheme shows up in
   [--help] by itself. *)
let scheme_names = String.concat ", " Smr.Registry.names

let point_names =
  String.concat ", " (List.map Smr.Probe.point_name Smr.Probe.all_points)

let structure_names =
  String.concat ", "
    (List.map (fun b -> b.Harness.Instance.name) Harness.Instance.builders)

let range_arg ~default =
  let doc = "Key range." in
  Arg.(value & opt int default & info [ "range" ] ~docv:"N" ~doc)

(* Fail on an unwritable [--json] path BEFORE the benchmarks run: a raw
   Sys_error after minutes of runs would throw all results away. *)
let preflight_json json =
  match json with
  | None -> ()
  | Some path -> (
      match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
      | oc -> close_out oc
      | exception Sys_error msg ->
          Printf.eprintf "scotbench: cannot write --json artifact: %s\n" msg;
          exit 1)

(* Write the combined BENCH artifact when [--json] was given. *)
let write_json ?meta ~name json rows =
  Option.iter
    (fun path ->
      Harness.Report.write_bench_doc ?meta ~path ~name rows;
      Printf.printf "wrote %s (%d runs)\n%!" path (List.length rows))
    json

let cmd_of name doc term = Cmd.v (Cmd.info name ~doc) term

(* The soak commands' shared error path and tail: write the BENCH document
   when [--json] was given, then report every failure and exit 1. *)
let die cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "scotbench %s: %s\n" cmd msg;
      Stdlib.exit 1)
    fmt

let lookup cmd ?(hint = "") what find name =
  match find name with
  | Some v -> v
  | None -> die cmd "unknown --%s %s%s" what name hint

(* [--structure] and [--point] resolve before any run starts; the
   matrices take the canonical names and look them up again. *)
let builder_of cmd name =
  lookup cmd
    ~hint:(Printf.sprintf " (%s)" structure_names)
    "structure" Harness.Instance.find_builder name

let structure_of cmd name = (builder_of cmd name).Harness.Instance.name

let point_of cmd name =
  Smr.Probe.point_name
    (lookup cmd
       ~hint:(Printf.sprintf " (%s)" point_names)
       "point"
       (fun n -> Result.to_option (Smr.Probe.point_of_string n))
       name)

(* A soak document has no ["config"]: its rows carry their own
   parameters. *)
let soak_tail cmd json rows failures =
  write_json ~name:cmd json rows;
  if failures <> [] then begin
    List.iter (Printf.eprintf "scotbench %s: %s\n" cmd) failures;
    Stdlib.exit 1
  end

let rows = List.map Harness.Report.result_json

(* A sweep command: [body] yields the BENCH rows of its runs under the
   sweep configuration (resolved over [preset]), which the document
   records as ["config"]. *)
let bench_cmd ?fig12 ?(preset = preset) cmd_name doc body =
  cmd_of cmd_name doc
    Term.(
      const (fun sweep json rows_of ->
          let cfg = sweep preset in
          preflight_json json;
          write_json
            ~meta:(Harness.Experiments.cfg_meta cfg)
            ~name:cmd_name json (rows_of cfg))
      $ sweep_term ?fig12 ~preset () $ json_arg $ body)

let fig8_cmd =
  bench_cmd "fig8"
    "List throughput (HMList vs HList), Figure 8, and its memory overhead, \
     Figure 10"
    Term.(
      const (fun range cfg -> rows (Harness.Experiments.fig8 cfg ~range))
      $ range_arg ~default:512)

let fig9_cmd =
  bench_cmd "fig9"
    "NMTree throughput, Figure 9, and its memory overhead, Figure 11"
    Term.(
      const (fun range cfg -> rows (Harness.Experiments.fig9 cfg ~range))
      $ range_arg ~default:128)

let fig12_cmd =
  bench_cmd ~fig12:true "fig12" "NMTree at cache-exceeding key range, Figure 12"
    Term.(const (fun cfg -> rows (Harness.Experiments.fig12 cfg)))

let table1_cmd =
  cmd_of "table1" "SMR-compatibility matrix, Table 1"
    Term.(
      const (fun duration quick ->
          let duration =
            Option.value duration ~default:(preset quick).duration
          in
          ignore (Harness.Experiments.table1 ~duration ()))
      $ duration_arg ~absent:"2, or 0.4 with $(b,--quick)"
      $ quick_arg)

let table2_cmd =
  bench_cmd ~preset:table2_preset "table2"
    "Restart statistics under HP, Table 2"
    Term.(const (fun cfg -> rows (Harness.Experiments.table2 cfg)))

let ablation_recovery_cmd =
  bench_cmd "ablation-recovery" "Recovery optimisation on/off (SS 3.2.1)"
    Term.(const (fun cfg -> rows (Harness.Experiments.ablation_recovery cfg)))

let ablation_wf_cmd =
  bench_cmd "ablation-wf" "Wait-free vs lock-free traversals (SS 3.4)"
    Term.(const (fun cfg -> rows (Harness.Experiments.ablation_wf cfg)))

(* The chaos and recover matrices: 2 and 4 domains, or 2 at smoke size,
   unless [-t] narrows them (one domain cannot stall or crash a peer). *)
let matrix_threads = threads_arg ~absent:"2,4, or 2 with $(b,--smoke)"
let matrix_duration = duration_arg ~absent:"2, or 0.3 with $(b,--smoke)"

let matrix_shape cmd ~smoke threads duration =
  let threads_list =
    match threads with
    | None -> if smoke then [ 2 ] else [ 2; 4 ]
    | Some ts -> List.filter (fun n -> n >= 2) ts
  in
  if threads_list = [] then die cmd "-t needs a thread count of at least 2";
  ( threads_list,
    Option.value duration
      ~default:
        (if smoke then 0.3 else Harness.Experiments.default_cfg.duration) )

let chaos_cmd =
  let smoke =
    smoke_arg
      "CI-sized run: 2 domains, short duration, and a quick \
       use-after-free fuzz on HListUnsafe."
  in
  let fuzz_flag =
    Arg.(
      value & flag
      & info [ "fuzz" ]
          ~doc:
            "Hunt use-after-free with random fault schedules: HListUnsafe \
             must fault, the safe structure must not.")
  in
  let structure =
    Arg.(
      value & opt string "HList"
      & info [ "structure" ] ~docv:"NAME"
          ~doc:"Structure to validate the memory bounds on.")
  in
  let point =
    Arg.(
      value & opt string "read"
      & info [ "point" ] ~docv:"POINT"
          ~doc:
            (Printf.sprintf "Injection point the stalled domain parks at (%s)."
               point_names))
  in
  let scheme =
    Arg.(
      value & opt string "all"
      & info [ "scheme" ] ~docv:"NAME"
          ~doc:
            "Restrict the matrix to one SMR scheme (default: all).  \
             Selecting the neutralizing DEBRA+ scheme (debra or DBR) \
             additionally runs the clean-run throughput-floor check \
             against EBR and the stall comparison panel (DBR vs \
             EBR/IBR).")
  in
  cmd_of "chaos"
    "Fault-injection validation: memory bounds under stalls, plus fuzzing"
    Term.(
      const (fun threads duration json smoke do_fuzz structure point scheme_name
                range ->
          preflight_json json;
          let structure = structure_of "chaos" structure
          and point = point_of "chaos" point in
          let scheme_name =
            match String.lowercase_ascii scheme_name with
            | "debra" -> "DBR"
            | _ -> scheme_name
          in
          let schemes =
            if String.lowercase_ascii scheme_name = "all" then None
            else Some [ lookup "chaos" "scheme" Smr.Registry.find scheme_name ]
          in
          let threads_list, duration =
            matrix_shape "chaos" ~smoke threads duration
          in
          let runs =
            Harness.Experiments.chaos_matrix ~structure ~threads_list ~point
              ~range ~duration ?schemes ()
          in
          let failed =
            List.filter (fun r -> not r.Harness.Experiments.c_ok) runs
          in
          let neutralizing, single =
            match schemes with
            | Some [ s ] ->
                ((Smr.Registry.capabilities s).Smr.Smr_intf.neutralizing, [ s ])
            | _ -> (false, [])
          in
          let cmp_threads = List.fold_left max 2 threads_list in
          (* Second acceptance criterion for a scheme that adds stall
             machinery (DBR's neutralization checkpoints): no stall,
             clean-run throughput within 10% of EBR. *)
          let floor =
            if neutralizing then
              List.map
                (fun s ->
                  Harness.Experiments.clean_floor ~structure
                    ~threads:cmp_threads ~range ~duration ~scheme:s ())
                single
            else []
          in
          (* The DBR headline artifact: the same stall, DBR next to the
             era/interval schemes (bounded-via-neutralization vs growing
             EBR vs bounded-via-tracking IBR).  DBR's run at [cmp_threads]
             comes from the matrix above. *)
          let stall_cmp =
            if neutralizing then
              [
                Harness.Experiments.stall_comparison ~structure
                  ~threads:cmp_threads ~point ~range ~duration ~matrix:runs ();
              ]
            else []
          in
          let fuzzes =
            if do_fuzz || smoke then (
              let scheme = Smr.Registry.find_exn "HP" in
              let unsafe =
                Harness.Experiments.fuzz ~structure:"HListUnsafe"
                  ~budget_s:(if smoke then 15.0 else 60.0)
                  ~scheme ()
              in
              if smoke then [ unsafe ]
              else
                [
                  unsafe;
                  Harness.Experiments.fuzz ~structure ~budget_s:10.0 ~scheme ();
                ])
            else []
          in
          List.iter
            (fun f ->
              Printf.printf "fuzz %-12s %-5s seeds=%d  %s\n%!"
                f.Harness.Experiments.fz_structure f.fz_scheme f.fz_seeds
                (match f.fz_uaf_seed with
                | Some s -> Printf.sprintf "use-after-free at seed %d" s
                | None -> "no fault"))
            fuzzes;
          let fuzz_bad =
            List.exists
              (fun f ->
                let expect_uaf =
                  f.Harness.Experiments.fz_structure = "HListUnsafe"
                in
                f.Harness.Experiments.fz_uaf_seed <> None <> expect_uaf)
              fuzzes
          in
          let rows =
            List.map Harness.Experiments.chaos_run_json runs
            @ List.map Harness.Experiments.floor_run_json floor
            @ List.map
                (Harness.Experiments.stall_cmp_json ~structure
                   ~threads:cmp_threads ~stalled:1 ~point ~range ~duration)
                stall_cmp
            @ List.map Harness.Experiments.fuzz_result_json fuzzes
          in
          soak_tail "chaos" json rows
            (List.filter_map
               (fun (bad, msg) -> if bad then Some msg else None)
               [
                 ( failed <> [],
                   Printf.sprintf "%d verdict(s) failed" (List.length failed)
                 );
                 (fuzz_bad, "fuzzer expectation failed");
                 ( List.exists
                     (fun f -> not f.Harness.Experiments.fl_ok)
                     floor,
                   "clean-run throughput below 0.9x EBR" );
                 ( List.exists
                     (List.exists (fun c -> not c.Harness.Experiments.c_ok))
                     stall_cmp,
                   "stall-comparison verdict(s) failed" );
               ]))
      $ matrix_threads $ matrix_duration $ json_arg $ smoke $ fuzz_flag
      $ structure $ point $ scheme $ range_arg ~default:256)

let recover_cmd =
  let smoke =
    smoke_arg "CI-sized run: 2 domains, one crash, short duration."
  in
  let structure =
    Arg.(
      value & opt string "HList"
      & info [ "structure" ] ~docv:"NAME"
          ~doc:"Structure to validate crash recovery on.")
  in
  let crashed =
    Arg.(
      value & opt int 1
      & info [ "crashed" ] ~docv:"K"
          ~doc:"Worker domains to crash mid-traversal.")
  in
  cmd_of "recover"
    "Crash recovery validation: kill domains mid-traversal, supervise \
     (deactivate + adopt + respawn), check the memory bounds"
    Term.(
      const (fun threads duration json smoke structure crashed range ->
          preflight_json json;
          let structure = structure_of "recover" structure in
          let threads_list, duration =
            matrix_shape "recover" ~smoke threads duration
          in
          let runs =
            Harness.Experiments.recover_matrix ~structure ~threads_list
              ~crashed ~range ~duration ()
          in
          let failed =
            List.filter (fun r -> not r.Harness.Experiments.rc_ok) runs
          in
          soak_tail "recover" json
            (List.map Harness.Experiments.recover_run_json runs)
            (if failed = [] then []
             else
               [ Printf.sprintf "%d verdict(s) failed" (List.length failed) ]))
      $ matrix_threads $ matrix_duration $ json_arg $ smoke $ structure
      $ crashed $ range_arg ~default:256)

(* A soak flag with a [--smoke] preset: the term yields a function of the
   [--smoke] flag returning the value given on the command line, or else
   [smoke] or [full]. *)
let smoke_preset kind ~full ~smoke name ~docv ~doc =
  let pp v = Format.asprintf "%a" (Arg.conv_printer kind) v in
  let absent =
    Printf.sprintf "%s, or %s with $(b,--smoke)" (pp full) (pp smoke)
  in
  let given =
    Arg.(value & opt (some kind) None & info [ name ] ~absent ~docv ~doc)
  in
  Term.(
    const (fun v on ->
        match v with Some v -> v | None -> if on then smoke else full)
    $ given)

let serve_cmd =
  let module Sv = Scotstore.Serve in
  let dc = Sv.default_cfg () in
  let smoke =
    smoke_arg
      "CI-sized soak: 2 shards x 2 workers, short duration, one \
       crashed worker, both dispatch modes."
  in
  let scheme =
    let (module S : Smr.Smr_intf.S) = dc.sv_scheme in
    Arg.(
      value & opt string S.name
      & info [ "scheme" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "SMR scheme for every shard (%s)." scheme_names))
  in
  let shards =
    smoke_preset Arg.int ~full:dc.sv_shards ~smoke:2 "shards" ~docv:"N"
      ~doc:"Store shards (one SMR instance each)."
  in
  let workers =
    smoke_preset Arg.int ~full:dc.sv_threads ~smoke:2 "workers" ~docv:"N"
      ~doc:"Client worker domains."
  in
  let range =
    smoke_preset Arg.int ~full:dc.sv_range ~smoke:1024 "range" ~docv:"N"
      ~doc:"Key range."
  in
  let batch =
    Arg.(
      value & opt int dc.sv_batch_capacity
      & info [ "batch" ] ~docv:"N"
          ~doc:"Per-shard group size at which deferred requests auto-flush.")
  in
  let mix =
    let m = dc.sv_mix in
    Arg.(
      value
      & opt (t3 ~sep:'/' int int int)
          Harness.Workload.(m.read_pct, m.insert_pct, m.delete_pct)
      & info [ "mix" ] ~docv:"R/I/D" ~doc:"Percent gets/puts/deletes.")
  in
  let crash =
    Arg.(
      value & opt int dc.sv_crash
      & info [ "crash" ] ~docv:"K"
          ~doc:
            "Worker domains armed to crash mid-request; the supervisor \
             must recover every one for the soak to pass.")
  in
  let ttl_pct =
    Arg.(
      value & opt int dc.sv_ttl_pct
      & info [ "ttl-pct" ] ~docv:"P"
          ~doc:"Percent of puts carrying a 0.05 s TTL.")
  in
  let mode =
    Arg.(
      value & opt string "both"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Dispatch mode: per-op (one SMR bracket per request), batched \
             (one bracket per shard group), or both (runs per-op then \
             batched and reports the speedup).")
  in
  let min_speedup =
    Arg.(
      value & opt float 0.0
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:
            "With --mode both: fail unless batched throughput is at least \
             X times the per-op throughput.")
  in
  cmd_of "serve"
    "Service-tier soak: sharded KV store under a skewed request stream, \
     batched vs per-op SMR bracket dispatch, supervised crash recovery"
    Term.(
      const (fun duration repeats json smoke scheme shards workers range
                batch (r, i, d) crash ttl_pct mode min_speedup ->
          preflight_json json;
          let scheme = lookup "serve" "scheme" Smr.Registry.find scheme in
          let single =
            match String.lowercase_ascii mode with
            | "both" -> None
            | m ->
                Some
                  (lookup "serve" "mode" ~hint:" (per-op, batched, both)"
                     Sv.mode_of_string m)
          in
          let sc =
            {
              Sv.sv_scheme = scheme;
              sv_shards = shards smoke;
              sv_threads = workers smoke;
              sv_range = range smoke;
              sv_duration =
                Option.value duration
                  ~default:(if smoke then 0.4 else dc.sv_duration);
              sv_batch_capacity = batch;
              sv_mix = Harness.Workload.mix ~read:r ~insert:i ~delete:d;
              sv_ttl_pct = ttl_pct;
              sv_crash = crash;
            }
          in
          let repeats = max 1 repeats in
          (* With both modes, the [-r] repeats are interleaved pairs
             scored by [Experiments.paired_median]: the speedup is the
             median of per-round batched/per-op ratios, and the reported
             rows are that median round, so the artifact carries a
             consistent pair.  Verdicts must hold on EVERY repeat
             regardless of which round is reported. *)
          let pair (p, b) = [ (Sv.Per_op, p); (Sv.Batched, b) ] in
          let rounds, speedup, results =
            match single with
            | None ->
                let rounds, round, speedup =
                  Harness.Experiments.paired_median ~pairs:repeats
                    ~ratio:(fun ((p : Sv.result), (b : Sv.result)) ->
                      b.r_throughput /. p.r_throughput)
                    (fun () -> Sv.run sc Sv.Per_op)
                    (fun () -> Sv.run sc Sv.Batched)
                in
                (List.map pair rounds, Some speedup, pair round)
            | Some mode ->
                let runs = List.init repeats (fun _ -> Sv.run sc mode) in
                ( List.map (fun r -> [ (mode, r) ]) runs,
                  None,
                  [ (mode, Harness.Experiments.median_by
                             (fun r -> r.Sv.r_throughput) runs) ] )
          in
          let per_mode m = List.map (List.assoc m) rounds in
          let results =
            List.map
              (fun (m, (r : Sv.result)) ->
                match List.find_opt (fun x -> not x.Sv.r_ok) (per_mode m) with
                | Some bad when r.r_ok ->
                    (m, { r with r_ok = false; r_verdict = bad.r_verdict })
                | _ -> (m, r))
              results
          in
          List.iter
            (fun (m, (r : Sv.result)) ->
              Printf.printf
                "serve %-7s: ops=%d  thr=%s ops/s  max_unreclaimed=%d  \
                 post_quiesced=%d%s  expired=%d  recoveries=%d  verdict=%s\n%!"
                (Sv.mode_name m) r.r_ops
                (Harness.Report.human r.r_throughput)
                r.r_max_unreclaimed r.r_post_quiesced
                (match r.r_bound with
                | Some b -> Printf.sprintf " (bound %d)" b
                | None -> "")
                r.r_expired
                (List.length r.r_recoveries)
                r.r_verdict)
            results;
          (match speedup with
          | Some s -> Printf.printf "speedup (batched / per-op): %.2fx\n%!" s
          | None -> ());
          Option.iter
            (fun (b : Sv.result) ->
              Harness.Report.table
                ~header:[ "shard"; "ops"; "hits"; "misses"; "thr (ops/s)" ]
                (List.map
                   (fun (s : Sv.shard_row) ->
                     [
                       string_of_int s.sr_shard;
                       string_of_int s.sr_ops;
                       string_of_int s.sr_hits;
                       string_of_int (s.sr_ops - s.sr_hits);
                       Harness.Report.human s.sr_throughput;
                     ])
                   b.r_per_shard))
            (List.assoc_opt Sv.Batched results);
          soak_tail "serve" json
            (List.map
               (fun (m, r) ->
                 let speedup = if m = Sv.Batched then speedup else None in
                 Sv.result_json ?speedup sc r)
               results)
            (List.filter_map
               (fun (m, (r : Sv.result)) ->
                 if r.r_ok then None
                 else
                   Some
                     (Printf.sprintf "%s verdict failed: %s" (Sv.mode_name m)
                        r.r_verdict))
               results
            @
            match speedup with
            | Some s when s < min_speedup ->
                [
                  Printf.sprintf "speedup %.2fx below required %.2fx" s
                    min_speedup;
                ]
            | _ -> []))
      $ duration_arg
          ~absent:(Printf.sprintf "%g, or 0.4 with $(b,--smoke)" dc.sv_duration)
      $ repeats_arg $ json_arg $ smoke $ scheme $ shards $ workers $ range
      $ batch $ mix $ crash $ ttl_pct $ mode $ min_speedup)

let pressure_cmd =
  let module Ov = Scotstore.Overload in
  let dc = Ov.default_cfg () in
  let smoke =
    smoke_arg "CI-sized soak: 2 shards, 4 workers on 3 domains, short phases."
  in
  let scheme =
    Arg.(
      value & opt string ""
      & info [ "scheme" ] ~docv:"NAME"
          ~doc:
            "Run a single scheme (enforcing if robust, monitor-only \
             otherwise).  Default: the verdict panel — DBR, IBR \
             enforcing plus EBR as the monitor-only negative control.")
  in
  let workers =
    smoke_preset Arg.int ~full:dc.pv_workers ~smoke:4 "workers" ~docv:"N"
      ~doc:"Worker domains (store clients)."
  in
  let domains =
    smoke_preset Arg.int ~full:dc.pv_domains ~smoke:3 "domains" ~docv:"N"
      ~doc:
        "Runnable cores during the ramp: workers beyond this count are \
         parked mid-read (oversubscription)."
  in
  let readers =
    smoke_preset Arg.int ~full:dc.pv_readers ~smoke:1 "readers" ~docv:"N"
      ~doc:"Dedicated reader tids scoring the read-liveness verdict."
  in
  let range =
    smoke_preset Arg.int ~full:dc.pv_range ~smoke:512 "range" ~docv:"N"
      ~doc:"Key range."
  in
  let clean =
    smoke_preset Arg.float ~full:dc.pv_clean_s ~smoke:0.2 "clean" ~docv:"SEC"
      ~doc:"Clean (baseline) phase duration."
  in
  (* The smoke ramp must be long enough for the monitor-only negative
     control to overflow the reference stall bound — EBR's growth rate is
     the writers' admitted retire rate, and the bound's dominant per-stall
     term is [range]. *)
  let ramp =
    smoke_preset Arg.float ~full:dc.pv_ramp_s ~smoke:0.5 "ramp" ~docv:"SEC"
      ~doc:"Ramp (stalled) phase duration."
  in
  (* Descent is hysteretic and one level at a time, and on an
     oversubscribed host the gauge carries OS-preemption noise: give the
     machines room to walk Degraded_all -> Healthy. *)
  let drain =
    smoke_preset Arg.float ~full:dc.pv_drain_s ~smoke:0.5 "drain" ~docv:"SEC"
      ~doc:"Drain (recovery) phase duration."
  in
  cmd_of "pressure"
    "Overload soak: ramp a sharded store past its memory budget with \
     parked readers, and demand graceful degradation (shed writes, live \
     reads) and recovery from robust schemes — and demonstrable overflow \
     from the non-robust negative control"
    Term.(
      const (fun json smoke scheme workers domains readers range clean ramp
                drain ->
          preflight_json json;
          (* The verdict panel: robust schemes must degrade gracefully
             and recover; EBR, not robust, runs monitor-only as the
             negative control (the store derives enforcement from the
             scheme). *)
          let panel =
            if scheme = "" then [ "DBR"; "IBR"; "EBR" ]
            else
              let (module S : Smr.Smr_intf.S) =
                lookup "pressure" "scheme" Smr.Registry.find scheme
              in
              [ S.name ]
          in
          let run_one name =
            let pc =
              {
                Ov.pv_scheme = Smr.Registry.find_exn name;
                pv_workers = workers smoke;
                pv_domains = domains smoke;
                pv_readers = readers smoke;
                pv_range = range smoke;
                pv_clean_s = clean smoke;
                pv_ramp_s = ramp smoke;
                pv_drain_s = drain smoke;
              }
            in
            (name, pc, Ov.run pc)
          in
          let results = List.map run_one panel in
          List.iter
            (fun (name, _, (r : Ov.result)) ->
              Printf.printf
                "pressure %-4s %-9s: parked=%d  max_unr=%d  stall_bound=%d  \
                 budget=%d  shed=%d  retries=%d  read_live=%.2f  \
                 max_level=%s  recovered=%b  verdict=%s\n%!"
                name
                (if r.r_enforce then "enforcing" else "monitor")
                r.r_parked r.r_max_unreclaimed r.r_stall_bound r.r_budget
                (r.r_shed_ttl + r.r_shed_all)
                r.r_retries r.r_read_live_ratio
                (Scotstore.Pressure.level_name r.r_max_level)
                r.r_recovered r.r_verdict)
            results;
          soak_tail "pressure" json
            (List.map (fun (_, pc, r) -> Ov.result_json pc r) results)
            (List.filter_map
               (fun (name, _, (r : Ov.result)) ->
                 if r.r_ok then None
                 else
                   Some (Printf.sprintf "%s verdict failed: %s" name r.r_verdict))
               results))
      $ json_arg $ smoke $ scheme $ workers $ domains $ readers $ range $ clean
      $ ramp $ drain)

(* Not part of [all]: the panel scores the adaptive controller, not a
   figure of the paper.  Smoke runs exercise the controller and the BENCH
   row shape only; they are too short to show the separation. *)
let tune_cmd =
  cmd_of "tune"
    "Self-tuning reclamation thresholds: static limbo thresholds vs the \
     adaptive controller on a phase-shifting workload with a straggler"
    Term.(
      const (fun json smoke ->
          preflight_json json;
          let runs =
            if smoke then
              Harness.Experiments.tune ~duration:0.4 ~range:512
                ~statics:[ 16; 256 ] ~oracles:[] ()
            else Harness.Experiments.tune ()
          in
          write_json ~name:"tune" json
            (List.map Harness.Experiments.tune_run_json runs))
      $ json_arg
      $ smoke_arg
          "CI-sized panel: 0.4 s per run, range 512, statics 16 and 256, \
           no oracle thresholds.")

let fig_skiplist_cmd =
  bench_cmd "fig-skiplist" "SkipList SCOT vs Herlihy-Shavit searches (extension)"
    Term.(const (fun cfg -> rows (Harness.Experiments.fig_skiplist cfg)))

let mixes_cmd =
  bench_cmd "mixes" "Read-dominated and write-only workload mixes (SS 5)"
    Term.(const (fun cfg -> rows (Harness.Experiments.mixes cfg)))

(* [all] resolves the sweep flags twice: Table 2 over its own preset,
   every other experiment (and the document's ["config"]) over the
   [--quick] one. *)
let all_cmd =
  cmd_of "all"
    "Run every experiment in paper order (Table 2 over its own defaults: at \
     least 2 s per run, and 8 added to the thread list, unless $(b,-d) / \
     $(b,-t) are given)"
    Term.(
      const (fun sweep json ->
          let cfg = sweep preset in
          preflight_json json;
          write_json
            ~meta:(Harness.Experiments.cfg_meta cfg)
            ~name:"all" json
            (Harness.Experiments.run_all ~table2:(sweep table2_preset) cfg))
      $ sweep_term ~fig12:true () $ json_arg)

let run_cmd =
  let structure =
    Arg.(
      value & opt string "HList"
      & info [ "structure" ] ~docv:"NAME"
          ~doc:"Data structure (HList, HListWF, HMList, NMTree, ...).")
  in
  let scheme =
    Arg.(
      value & opt string "HP"
      & info [ "scheme" ] ~docv:"NAME"
          ~doc:(Printf.sprintf "SMR scheme (%s)." scheme_names))
  in
  let mix =
    Arg.(
      value & opt (t3 ~sep:'/' int int int) (50, 25, 25)
      & info [ "mix" ] ~docv:"R/I/D"
          ~doc:"Percent reads/inserts/deletes, e.g. 90/5/5.")
  in
  let skew =
    Arg.(
      value & opt string "uniform"
      & info [ "skew" ] ~docv:"DIST"
          ~doc:
            "Key distribution: uniform, zipf:THETA (0 < theta < 1, e.g. \
             zipf:0.99), or hot:A/B (A% of ops on B% of keys, e.g. \
             hot:90/10).")
  in
  let phases =
    Arg.(
      value & opt string ""
      & info [ "phases" ] ~docv:"SPEC"
          ~doc:
            "Time-varying mix schedule, cycling: NAME:SECONDS \
             comma-separated, where NAME is read, mixed, churn, drain or an \
             R/I/D triple — e.g. read:2,churn:1,drain:0.5.")
  in
  cmd_of "run" "One custom benchmark run per requested thread count"
    Term.(
      const (fun threads duration json structure scheme range (r, i, d) skew
                phases ->
          preflight_json json;
          let builder = builder_of "run" structure
          and scheme = lookup "run" "scheme" Smr.Registry.find scheme in
          let skew = Harness.Workload.skew_of_string skew in
          let phases =
            if phases = "" then [] else Harness.Workload.phases_of_string phases
          in
          let results =
            List.map
              (fun threads ->
                Harness.Runner.run
                  ~mix:(Harness.Workload.mix ~read:r ~insert:i ~delete:d)
                  ~skew ~phases ~builder ~scheme ~threads ~range
                  ~duration:
                    (Option.value duration
                       ~default:Harness.Experiments.default_cfg.duration)
                  ())
              (Option.value threads
                 ~default:Harness.Experiments.default_cfg.threads)
          in
          Harness.Report.table ~header:Harness.Report.result_header
            (List.map Harness.Report.result_row results);
          write_json ~name:"run" json (rows results))
      $ threads_arg ~absent:"1,2,4,8" $ duration_arg ~absent:"2" $ json_arg
      $ structure $ scheme
      $ range_arg ~default:10_000
      $ mix $ skew $ phases)

let () =
  let info =
    Cmd.info "scotbench" ~version:"1.0"
      ~doc:"SCOT benchmark suite (PPoPP'26 reproduction)"
  in
  (* A flag value the library rejects ([--mix 50/50/50], [-t 0],
     [--crash 5], ...) raises [Invalid_argument]: a usage error, exit 1,
     not an internal error. *)
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [
           fig8_cmd; fig9_cmd; fig12_cmd; table1_cmd; table2_cmd;
           ablation_recovery_cmd; ablation_wf_cmd; fig_skiplist_cmd;
           mixes_cmd; chaos_cmd; recover_cmd; serve_cmd; pressure_cmd;
           tune_cmd; all_cmd;
           run_cmd;
         ])
  with
  | code -> exit code
  | exception Invalid_argument msg ->
      Printf.eprintf "scotbench: %s\n" msg;
      exit 1
