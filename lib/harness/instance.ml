(* Type-erased data-structure instances.

   Every benchmark and test runs against this record, so a single runner
   serves the full (structure x SMR scheme) matrix.  Builders instantiate
   the structure functor with the chosen scheme and pre-register one handle
   per thread.

   Fault control: instead of the old [stall_begin] (which registered an
   extra SMR handle and left it inside a synthetic operation), the [fault]
   sub-record drives *real* operations to named injection points.  A stall
   spawns a driver domain that runs an actual operation on the instance and
   parks at the requested {!Smr.Probe.point} via the shared {!Chaos}
   engine — so the stalled thread holds exactly the protection a real
   operation holds at that point (published hazard mid-traversal, epoch
   reservation after start-op, a pending retire at the retire boundary). *)

type fault_control = {
  stall : tid:int -> point:string -> unit;
  resume : tid:int -> unit;
  crash : tid:int -> unit;
  capabilities : string list;
  engine : unit -> Chaos.t;
  shutdown : unit -> unit;
}

type t = {
  structure : string;
  scheme : string;
  threads : int;
  slots : int; (* hazard/era slots per thread the structure needs *)
  insert : tid:int -> int -> bool;
  delete : tid:int -> int -> bool;
  search : tid:int -> int -> bool;
  quiesce : tid:int -> unit; (* force a reclamation pass on that thread *)
  teardown : unit -> unit;
      (* quiesce every thread: drain limbo/pools so a reused process does
         not leak grown reclamation state into the next measurement *)
  restarts : unit -> int;
  unreclaimed : unit -> int;
  scheme_stats : unit -> (string * int) list;
      (* scheme-specific counters (epoch/era, limbo depth, ...) *)
  size : unit -> int;
  check_invariants : unit -> unit;
  recover : tid:int -> unit;
      (* crash recovery: deactivate [tid]'s dead handle, register a
         replacement on the same tid, adopt the orphaned limbo onto it
         and sweep once.  Only call after the owning domain has died (the
         supervisor's job); subsequent per-tid operations use the
         replacement handle. *)
  capabilities : Smr.Smr_intf.capabilities;
      (* the scheme's capability record ([S.capabilities]): matrix
         runners branch on [robust]/[recoverable]/[neutralizing]/
         [adaptive] instead of matching scheme names *)
  fault : fault_control;
  max_key : int; (* exclusive upper bound on valid keys *)
}

let no_fault : fault_control =
  let missing _ = invalid_arg "Instance: fault control not attached" in
  {
    stall = (fun ~tid:_ ~point:_ -> missing ());
    resume = (fun ~tid:_ -> missing ());
    crash = (fun ~tid:_ -> missing ());
    capabilities = [];
    engine = (fun () -> missing ());
    shutdown = (fun () -> ());
  }

(* Run one real operation sequence on [t] as [tid], long enough to cross
   the requested injection point: a search crosses start-op and read; an
   insert-sentinel-then-delete crosses retire (the delete unlinks and
   retires the sentinel); the trailing quiesce forces a reclamation pass.
   The sentinel key is the top of the valid range so workloads (which draw
   from [0, range)) never collide with it. *)
let drive (t : t) ~tid ~(point : Smr.Probe.point) =
  match point with
  | Smr.Probe.Start_op | Smr.Probe.Read ->
      (* Search the top of the range: the traversal walks the whole list,
         so rules with a countdown (crash on the n-th protected load) are
         guaranteed enough crossings to trigger. *)
      ignore (t.search ~tid (t.max_key - 1))
  | Smr.Probe.Retire | Smr.Probe.Reclaim ->
      let k = t.max_key - 1 in
      ignore (t.insert ~tid k);
      ignore (t.delete ~tid k);
      t.quiesce ~tid

(* Attach fault control to a built record.  The chaos engine is created
   and installed lazily on first use, so instances that never inject
   faults keep every injection point compiled to a never-taken branch.
   Not thread-safe: drive faults from one controller domain. *)
let with_fault (t : t) =
  let eng : Chaos.t option ref = ref None in
  let drivers : (int, unit Domain.t) Hashtbl.t = Hashtbl.create 8 in
  let engine () =
    match !eng with
    | Some e -> e
    | None ->
        let e = Chaos.create ~threads:t.threads () in
        Chaos.install e;
        eng := Some e;
        e
  in
  let spawn_driver ~tid ~point =
    let d =
      Domain.spawn (fun () ->
          try drive t ~tid ~point with Chaos.Crashed -> ())
    in
    Hashtbl.replace drivers tid d
  in
  let join_driver ~tid =
    match Hashtbl.find_opt drivers tid with
    | None -> ()
    | Some d ->
        Domain.join d;
        Hashtbl.remove drivers tid
  in
  let stall ~tid ~point =
    let point = Smr.Probe.point_of_string_exn point in
    let e = engine () in
    Chaos.arm e ~tid ~point ~after:0 (Chaos.Stall { for_s = None });
    spawn_driver ~tid ~point;
    ignore (Chaos.wait_parked e ~tid)
  in
  let resume ~tid =
    match !eng with
    | None -> ()
    | Some e ->
        Chaos.resume e ~tid;
        join_driver ~tid
  in
  let crash ~tid =
    let e = engine () in
    if Chaos.parked e ~tid then Chaos.kill e ~tid
    else begin
      (* Crash mid-traversal: the second read crossing guarantees the
         protection for the first hop is already published when the
         exception unwinds past [end_op]. *)
      Chaos.arm e ~tid ~point:Smr.Probe.Read ~after:2 Chaos.Crash;
      spawn_driver ~tid ~point:Smr.Probe.Read
    end;
    join_driver ~tid
  in
  let shutdown () =
    match !eng with
    | None -> ()
    | Some e ->
        Chaos.release_all e;
        Hashtbl.iter (fun _ d -> Domain.join d) drivers;
        Hashtbl.reset drivers;
        Chaos.uninstall ();
        eng := None
  in
  {
    t with
    fault =
      {
        stall;
        resume;
        crash;
        capabilities = List.map Smr.Probe.point_name Smr.Probe.all_points;
        engine;
        shutdown;
      };
  }

(* Erase a built set over its scheme instance: one handle per thread,
   every closure field filled once, the gauge and counters read from the
   scheme, fault control attached. *)
let of_set (type s l) ~structure ~threads ~slots ?(max_key = max_int)
    (module S : Smr.Smr_intf.S with type t = s) (smr : s)
    (module L : Scot.Set_intf.S with type t = l) (set : l) =
  let handles = Array.init threads (fun tid -> L.handle set ~tid) in
  with_fault
    {
      structure;
      scheme = S.name;
      threads;
      slots;
      insert = (fun ~tid k -> L.insert handles.(tid) k);
      delete = (fun ~tid k -> L.delete handles.(tid) k);
      search = (fun ~tid k -> L.search handles.(tid) k);
      quiesce = (fun ~tid -> L.quiesce handles.(tid));
      teardown = (fun () -> Array.iter L.quiesce handles);
      restarts = (fun () -> L.restarts set);
      unreclaimed = (fun () -> S.unreclaimed smr);
      scheme_stats = (fun () -> S.stats smr);
      size = (fun () -> L.size set);
      check_invariants = (fun () -> L.check_invariants set);
      recover = (fun ~tid -> handles.(tid) <- L.recover handles.(tid));
      capabilities = S.capabilities;
      fault = no_fault;
      max_key;
    }

type builder = {
  name : string;
  description : string;
  safe_for_robust : bool;
      (* false for the deliberately unsafe Harris list variant *)
  build : Smr.Registry.scheme -> threads:int -> ?config:Smr.Smr_intf.config ->
          unit -> t;
}

(* Each entry applies its structure's functor to the scheme, creates the
   scheme instance with the structure's slot count, and erases the set. *)
let builders : builder list =
  let set ?(safe_for_robust = true) name description build =
    { name; description; safe_for_robust; build = build ~structure:name }
  in
  [
    set "HList" "Harris' list with SCOT (lock-free, recovery opt)"
      (fun ~structure (module S) ~threads ?config () ->
        let module L = Scot.Harris_list.Make (S) in
        let slots = Scot.Harris_list.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots (module S) smr (module L)
          (L.create ~smr ~threads ()));
    set "HList-norec" "Harris' list with SCOT, recovery optimisation disabled"
      (fun ~structure (module S) ~threads ?config () ->
        let module L = Scot.Harris_list.Make (S) in
        let slots = Scot.Harris_list.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots (module S) smr (module L)
          (L.create ~recovery:false ~smr ~threads ()));
    set "HListWF" "Harris' list with SCOT and wait-free traversals"
      (fun ~structure (module S) ~threads ?config () ->
        let module L = Scot.Harris_list_wf.Make (S) in
        let slots = Scot.Harris_list_wf.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots (module S) smr (module L)
          (L.create ~smr ~threads ()));
    set "HMList" "Harris-Michael list (eager unlink baseline)"
      (fun ~structure (module S) ~threads ?config () ->
        let module L = Scot.Harris_michael_list.Make (S) in
        let slots = Scot.Harris_michael_list.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots (module S) smr (module L)
          (L.create ~smr ~threads ()));
    set ~safe_for_robust:false "HListUnsafe"
      "Harris' list WITHOUT SCOT (Figure 2 demo; unsafe)"
      (fun ~structure (module S) ~threads ?config () ->
        let module L = Scot.Harris_list_unsafe.Make (S) in
        let slots = Scot.Harris_list_unsafe.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots (module S) smr (module L)
          (L.create ~smr ~threads ()));
    set "NMTree" "Natarajan-Mittal tree with SCOT"
      (fun ~structure (module S) ~threads ?config () ->
        let module T = Scot.Nm_tree.Make (S) in
        let slots = Scot.Nm_tree.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots ~max_key:Scot.Nm_tree.inf1
          (module S) smr (module T) (T.create ~smr ~threads ()));
    set "SkipList" "Skip list with SCOT per-level optimistic traversals"
      (fun ~structure (module S) ~threads ?config () ->
        let module SL = Scot.Skiplist.Make (S) in
        let slots = Scot.Skiplist.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots (module S) smr (module SL)
          (SL.create ~smr ~threads ()));
    set "HashMap" "Lock-free hash set: array of SCOT Harris lists"
      (fun ~structure (module S) ~threads ?config () ->
        let module M = Scot.Hashmap.Make (S) in
        let slots = Scot.Hashmap.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots (module S) smr (module M)
          (M.create ~buckets:64 ~smr ~threads ()));
    set "SkipList-HS" "Skip list, Herlihy-Shavit-style eager searches (baseline)"
      (fun ~structure (module S) ~threads ?config () ->
        let module SL = Scot.Skiplist.Make (S) in
        let slots = Scot.Skiplist.slots_needed in
        let smr = S.create ?config ~threads ~slots () in
        of_set ~structure ~threads ~slots (module S) smr (module SL)
          (SL.create ~optimistic:false ~smr ~threads ()));
  ]

let lookup_builder name =
  Smr.Lookup.find ~name_of:(fun b -> b.name) builders name

let find_builder name = Result.to_option (lookup_builder name)
let find_builder_exn name = Smr.Lookup.to_exn ~what:"structure" (lookup_builder name)
