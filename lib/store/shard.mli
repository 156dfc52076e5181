(** One store shard: a SCOT hash map ({!Scot.Hashmap}) with its {e own}
    SMR instance and one pre-registered handle per client thread, erased
    into closures the way {!Harness.Instance.t} erases benchmark
    structures.

    All bucket handles share one registration per client thread, so
    {!t.apply_batch} runs a whole request group under one bracket — see
    {!Scot.Hashmap.Make.apply_batch}. *)

type backend = Hashmap
(** The store's one backend, the argument of {!Store.create}. *)

val backend_name : backend -> string
(** ["HashMap"] — matches the harness structure name. *)

type t = {
  scheme : string;
  scheme_mod : Smr.Registry.scheme;
  config : Smr.Smr_intf.config;
  threads : int;
  slots : int;  (** hazard/era slots per thread the backend needs *)
  search : tid:int -> int -> bool;
  insert : tid:int -> int -> bool;
  delete : tid:int -> int -> bool;
  apply_batch : tid:int -> Scot.Batch_op.buf -> unit;
      (** Every pending request under a single [start_op]/[end_op]
          bracket; results land in the buffer (caller clears it). *)
  quiesce : tid:int -> unit;
  teardown : unit -> unit;  (** quiesce every tid *)
  unreclaimed : unit -> int;
  scheme_stats : unit -> (string * int) list;
  size : unit -> int;
  check_invariants : unit -> unit;
  recover : tid:int -> unit;
      (** Replace [tid]'s dead handle, adopting its orphaned limbo.  Only
          after the owning domain died (the supervisor's job). *)
  capabilities : Smr.Smr_intf.capabilities;
      (** the scheme's capability record; the store tier aggregates
          [robust]/[recoverable] over its shards *)
}

val create :
  ?config:Smr.Smr_intf.config ->
  ?buckets:int ->
  scheme:Smr.Registry.scheme ->
  threads:int ->
  unit ->
  t
(** [buckets] (default 256) is deliberately larger than the
    benchmark default: the service tier wants short chains so bracket
    entry, not traversal, dominates per-request cost.  [config] defaults
    to {!Smr.Smr_intf.default_config}. *)

val mem_bound : t -> range:int -> ?adopted:int -> stalled:int -> unit -> int option
(** {!Harness.Chaos.mem_bound} specialised to this shard's scheme, config
    and slot count; [None] for non-robust schemes. *)

val ref_mem_bound : t -> range:int -> ?adopted:int -> stalled:int -> unit -> int
(** Always-defined reference ceiling: {!mem_bound} when the shard's
    scheme is robust, else the bound IBR (the reference robust scheme)
    would have at the same config/threads/slots.  Pressure budgets and
    the negative-control verdict ("EBR exceeds the bound") are scored
    against this. *)
