(* Plain-text table rendering for the benchmark reports, plus the BENCH
   JSON document every machine-readable number is written to. *)

let hline widths =
  let parts = List.map (fun w -> String.make (w + 2) '-') widths in
  "+" ^ String.concat "+" parts ^ "+"

let render_row widths cells =
  let padded =
    List.map2 (fun w c -> Printf.sprintf " %-*s " w c) widths cells
  in
  "|" ^ String.concat "|" padded ^ "|"

(* [table ~header rows] prints an aligned ASCII table. *)
let table ?(out = stdout) ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let widths =
    List.init ncols (fun i ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          0 all)
  in
  let p line = output_string out (line ^ "\n") in
  p (hline widths);
  p (render_row widths header);
  p (hline widths);
  List.iter (fun row -> p (render_row widths row)) rows;
  p (hline widths);
  flush out

(* Collapse interior whitespace runs (including newlines from wrapped
   string literals) to single spaces, defensively: titles come from
   multi-line [Printf] format strings and have shipped with embedded
   run-on blanks before. *)
let normalise_title s =
  String.concat " "
    (List.filter
       (fun w -> w <> "")
       (String.split_on_char ' '
          (String.map
             (function ' ' | '\t' | '\n' | '\r' -> ' ' | c -> c)
             s)))

let section ?(out = stdout) title =
  output_string out (Printf.sprintf "\n=== %s ===\n" (normalise_title title));
  flush out

(* One-line annotation under a table — used e.g. for adoption warnings
   collected during a recovery run, so diagnostics land in the report
   stream instead of interleaving with it on stderr. *)
let note ?(out = stdout) msg =
  output_string out (Printf.sprintf "  note: %s\n" (normalise_title msg));
  flush out

(* Human-friendly formatting of large numbers (ops/s etc.). *)
let human f =
  if f >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fk" (f /. 1e3)
  else Printf.sprintf "%.0f" f

(* Columns for a [Runner.result] row. *)
let result_header =
  [ "structure"; "scheme"; "threads"; "range"; "throughput";
    "ops"; "restarts"; "avg_unreclaimed"; "max_unreclaimed"; "faults" ]

let result_row (r : Runner.result) =
  [
    r.structure;
    r.scheme;
    string_of_int r.threads;
    string_of_int r.range;
    human r.throughput;
    string_of_int r.ops;
    string_of_int r.restarts;
    Printf.sprintf "%.0f" r.avg_unreclaimed;
    string_of_int r.max_unreclaimed;
    string_of_int r.faults;
  ]

(* --- JSON emission (the machine-readable side of every report) --- *)

let mix_json (m : Workload.mix) =
  Json.Obj
    [
      ("read_pct", Json.Int m.read_pct);
      ("insert_pct", Json.Int m.insert_pct);
      ("delete_pct", Json.Int m.delete_pct);
    ]

let result_json (r : Runner.result) =
  Json.Obj
    [
      ("structure", Json.String r.structure);
      ("scheme", Json.String r.scheme);
      ("threads", Json.Int r.threads);
      ("range", Json.Int r.range);
      ("mix", mix_json r.mix);
      ("ops", Json.Int r.ops);
      ("duration", Json.Float r.duration);
      ("wall_total", Json.Float r.wall_total);
      ("throughput", Json.Float r.throughput);
      ("restarts", Json.Int r.restarts);
      ("avg_unreclaimed", Json.Float r.avg_unreclaimed);
      ("max_unreclaimed", Json.Int r.max_unreclaimed);
      ("faults", Json.Int r.faults);
      ("final_size", Json.Int r.final_size);
      ( "recoveries",
        Json.List (List.map Metrics.recovery_event_json r.recoveries) );
      ("op_stats", Json.List (List.map Metrics.op_stats_json r.op_stats));
      ( "mem_series",
        Json.List (List.map Metrics.mem_sample_json r.mem_series) );
      ( "scheme_stats",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.scheme_stats) );
    ]

(* Current commit, for run provenance in BENCH files. *)
let git_rev () =
  try
    let ic =
      Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
    in
    let rev = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")
  with _ -> "unknown"

let schema_version = 1

(* The single-document benchmark artifact: run metadata plus a caller-built
   ["runs"] array.  This is the BENCH_<name>.json format EXPERIMENTS.md
   documents; bump [schema_version] on breaking changes. *)
let write_bench_doc ?(meta = []) ~path ~name runs =
  Json.write_file ~path
    (Json.Obj
       ([
          ("schema_version", Json.Int schema_version);
          ("name", Json.String name);
          ("created_unix", Json.Float (Unix.gettimeofday ()));
          ("git_rev", Json.String (git_rev ()));
          ( "host",
            Json.Obj
              [
                ("cores", Json.Int (Domain.recommended_domain_count ()));
                ("ocaml", Json.String Sys.ocaml_version);
                ("word_size", Json.Int Sys.word_size);
              ] );
        ]
       @ meta
       @ [ ("runs", Json.List runs) ]))
