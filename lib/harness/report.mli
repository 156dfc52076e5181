(** Plain-text table rendering and the BENCH JSON document for benchmark
    reports. *)

(** [table ~header rows] prints an aligned ASCII table (to [out], default
    stdout).  All rows must have the same arity as [header]. *)
val table : ?out:out_channel -> header:string list -> string list list -> unit

val section : ?out:out_channel -> string -> unit
(** Prints a section banner.  Interior whitespace runs in the title
    (including newlines from wrapped format strings) are collapsed to
    single spaces. *)

val note : ?out:out_channel -> string -> unit
(** Prints a one-line ["note: ..."] annotation (whitespace collapsed like
    {!section}) — for diagnostics that belong in the report stream, e.g.
    the adoption warnings a recovery run synthesizes for schemes whose
    [capabilities.recoverable] is false. *)

(** Human formatting of large magnitudes: [1.5e9 -> "1.50G"],
    [74992. -> "75.0k"]. *)
val human : float -> string

(** Standard columns for a {!Runner.result}. *)

val result_header : string list

val result_row : Runner.result -> string list
(** Human-formatted (throughput as "75.0k"). *)

(** {2 JSON emission} *)

val mix_json : Workload.mix -> Json.t

val result_json : Runner.result -> Json.t
(** One run: identity, mix, throughput, latency percentiles per op kind,
    the timestamped unreclaimed series, and scheme counters. *)

val git_rev : unit -> string
(** Short commit hash of the working tree, or ["unknown"]. *)

val schema_version : int
(** Version stamped into every BENCH document; bumped on breaking
    changes to the JSON layout. *)

val write_bench_doc :
  ?meta:(string * Json.t) list ->
  path:string ->
  name:string ->
  Json.t list ->
  unit
(** Writes the single-document benchmark artifact to [path], pretty-printed:
    [schema_version], [name], [created_unix], [git_rev], [host], any extra
    [meta] pairs, and the given ["runs"] array.  Generic over the run
    payload so every producer ({!result_json} rows, the soaks' rows,
    [bench/micro]'s ["kind": "micro"] runs) shares the same envelope and
    validator. *)
