(** Type-erased data-structure instances: a single runner and test battery
    serve the full (structure x SMR scheme) matrix through this record. *)

type fault_control = {
  stall : tid:int -> point:string -> unit;
      (** Park [tid] at the named injection point (see
          {!Smr.Probe.point_of_string}; one of [capabilities]).  Spawns a
          driver domain that runs a *real* operation on the instance and
          stalls inside it, so the parked thread holds exactly the
          protection a live operation holds at that point.  Returns once
          the driver is parked.  The tid must not be running regular
          operations concurrently. *)
  resume : tid:int -> unit;
      (** Wake a stalled tid; its driven operation completes (including
          [end_op]) and the driver domain is joined. *)
  crash : tid:int -> unit;
      (** Kill the tid without [end_op]: a stalled tid wakes into
          {!Chaos.Crashed}; an idle tid is driven into a traversal and
          crashed mid-read with its protection published.  Irreversible —
          the tid's probe crossings poison it thereafter. *)
  capabilities : string list;
      (** Injection point names accepted by [stall]
          (["start-op"; "read"; "retire"; "reclaim"]). *)
  engine : unit -> Chaos.t;
      (** The instance's chaos engine (created and installed on first
          use).  Experiments that combine workload domains with fault
          schedules must arm rules on *this* engine — installing a second
          engine would displace it. *)
  shutdown : unit -> unit;
      (** Release every stalled tid, join all driver domains, uninstall
          the engine.  Call before [teardown] whenever faults were
          injected (teardown quiesces handles the drivers were using). *)
}
(** Not thread-safe: drive faults from a single controller domain.
    Replaces the former [stall_begin] field — where [stall_begin]
    registered a synthetic extra participant, [stall] parks a real
    operation at a named point and is resumable. *)

type t = {
  structure : string;
  scheme : string;
  threads : int;
  slots : int;  (** hazard/era slots per thread the structure needs *)
  insert : tid:int -> int -> bool;
  delete : tid:int -> int -> bool;
  search : tid:int -> int -> bool;
  quiesce : tid:int -> unit; (** force a reclamation pass on that thread *)
  teardown : unit -> unit;
      (** quiesce every thread: drain limbo/pools so repeated in-process
          measurements do not inherit grown reclamation state *)
  restarts : unit -> int;
  unreclaimed : unit -> int;
  scheme_stats : unit -> (string * int) list;
      (** scheme-specific counters (epoch/era, limbo depth, ...) *)
  size : unit -> int;
  check_invariants : unit -> unit;
  recover : tid:int -> unit;
      (** Crash recovery: deactivate [tid]'s dead handle, register a
          replacement on the same tid, adopt the orphaned limbo onto the
          replacement and sweep it once
          ({!Smr.Smr_intf.S.deactivate}/[adopt]).  Only call once the
          owning domain has died — and, if the tid was chaos-poisoned,
          after {!Chaos.revive} so the sweep's probe crossings do not
          re-raise.  Subsequent per-tid operations use the replacement
          handle. *)
  capabilities : Smr.Smr_intf.capabilities;
      (** The scheme's capability record
          ({!Smr.Smr_intf.S.capabilities}).  Matrix runners branch on
          [robust]/[recoverable]/[neutralizing]/[adaptive] instead of
          matching scheme names; e.g. [recoverable = false] (NR) means
          [recover] cannot restore a bounded unreclaimed gauge and the
          supervisor should surface the leak itself. *)
  fault : fault_control;
  max_key : int;
      (** exclusive upper bound on valid keys; [max_key - 1] is reserved
          as the fault drivers' sentinel *)
}

type builder = {
  name : string;
  description : string;
  safe_for_robust : bool;
      (** [false] only for HListUnsafe, Harris' list with its SCOT
          validation off. *)
  build :
    Smr.Registry.scheme -> threads:int -> ?config:Smr.Smr_intf.config ->
    unit -> t;
}

(** All registered structures: HList, HList-norec, HListWF, HMList,
    HListUnsafe, NMTree, SkipList, SkipList-HS, HashMap.  HList,
    HList-norec and HListUnsafe are one {!Scot.Harris_list} with its
    validation [`Recover], [`Restart] and [`Off]. *)
val builders : builder list

val lookup_builder : string -> (builder, Smr.Lookup.error) result
(** Case-insensitive; the shared lookup the CLI, benchmarks and tests all
    route through ({!Smr.Registry.lookup} is its twin). *)

val find_builder : string -> builder option
(** [Result.to_option] over {!lookup_builder}. *)

val find_builder_exn : string -> builder
(** Raises [Invalid_argument] listing the valid names. *)
