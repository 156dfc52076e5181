(* Deterministic fault injection at SMR injection points.

   The engine installs a handler for [Smr.Probe] and drives three kinds of
   faults at named points inside schemes and traversals:

   - [Stall]: the domain parks on a per-tid mutex/condition pair at the
     injection point — with its reservation/hazards *published*, which is
     exactly the adversarial state the paper's robustness claims are about.
     A stall either lasts until [resume] (or [release_all]) or expires on a
     wall-clock deadline.
   - [Crash]: the domain raises {!Crashed} from inside the operation, so
     [end_op] never runs and the thread's published protection leaks — the
     paper's crashed-thread scenario.  A crashed tid stays crashed: further
     probe crossings by that tid re-raise (the handle is poisoned).

   Rules are armed per (tid, point) with a hit countdown, so schedules such
   as "stall tid 3 at the retire boundary after its 10_000th retire" are a
   single [arm].  Triggering is deterministic per tid: probe crossings of a
   tid happen in that tid's program order, so the same schedule over the
   same per-tid op sequence fires at the same crossing every run (the event
   trace records this and the replay test asserts it).

   All cell state is guarded by the cell mutex.  The probe handler takes
   that mutex on every crossing — chaos mode trades hot-path speed for
   control, which is fine because the injection points compile to a single
   never-taken branch when chaos is not installed (asserted by the
   op-allocs benchmark). *)

exception Crashed

type action = Stall of { for_s : float option } | Crash

type rule = { tid : int; point : Smr.Probe.point; after : int; action : action }

type schedule = rule list

type event = { ev_tid : int; ev_point : Smr.Probe.point; ev_action : action }

type cell = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable parked : bool;
  mutable release : bool;
  mutable crashed : bool;
  countdown : int array; (* per point; -1 = disarmed *)
  actions : action option array; (* per point *)
}

type t = {
  cells : cell array;
  ev_mutex : Mutex.t;
  mutable events : event list; (* reverse order *)
}

let create ~threads () =
  (* The Probe park/crash registries are process-global; a previous
     engine's poisoned tids must not leak into this one (a stale crashed
     flag would let a neutralizing reclaimer unpin a live reader). *)
  for tid = 0 to threads - 1 do
    Smr.Probe.note_unparked tid;
    Smr.Probe.clear_crashed tid
  done;
  {
    cells =
      Array.init threads (fun _ ->
          {
            mutex = Mutex.create ();
            cond = Condition.create ();
            parked = false;
            release = false;
            crashed = false;
            countdown = Array.make Smr.Probe.n_points (-1);
            actions = Array.make Smr.Probe.n_points None;
          });
    ev_mutex = Mutex.create ();
    events = [];
  }

let threads t = Array.length t.cells

let record t ev =
  Mutex.lock t.ev_mutex;
  t.events <- ev :: t.events;
  Mutex.unlock t.ev_mutex

let action_name = function Stall _ -> "stall" | Crash -> "crash"

let event_to_string ev =
  Printf.sprintf "tid=%d point=%s action=%s" ev.ev_tid
    (Smr.Probe.point_name ev.ev_point)
    (action_name ev.ev_action)

let events t =
  Mutex.lock t.ev_mutex;
  let es = List.rev t.events in
  Mutex.unlock t.ev_mutex;
  es

let trace t = List.map event_to_string (events t)

(* Park the calling domain.  Indefinite stalls block on the condition
   variable; deadline stalls poll (the stdlib [Condition] has no timed
   wait), releasing the mutex between polls so the controller can get in. *)
let park t c =
  ignore t;
  c.parked <- true;
  c.release <- false;
  Condition.broadcast c.cond

(* [Probe.note_crashed] is only ever published from the VICTIM's own
   thread, at the moment it raises: a poisoned-but-still-running domain
   may be mid-dereference, so the neutralizing reclaimer must not learn
   about the crash (and unpin it) until the victim provably executes no
   further protected load — i.e. once the raise is in flight. *)
let unpark_check_crashed c ~tid =
  Smr.Probe.note_unparked tid;
  c.parked <- false;
  Condition.broadcast c.cond;
  let crashed = c.crashed in
  Mutex.unlock c.mutex;
  if crashed then begin
    Smr.Probe.note_crashed tid;
    raise Crashed
  end

(* Called with [c.mutex] held; returns with it released.  The parked-domain
   registry entry is published BEFORE parking: the domain performs no
   protected load between [note_parked] and blocking, so a neutralizing
   reclaimer that reads the entry may safely deliver — the laggard's next
   checkpoint load runs only after it wakes, hence after the delivery CAS
   (SC atomics). *)
let stall_here t c ~tid ~point ~for_s =
  Smr.Probe.note_parked tid point;
  park t c;
  (match for_s with
  | None -> while not c.release do Condition.wait c.cond c.mutex done
  | Some s ->
      let deadline = Clock.ns () + int_of_float (s *. 1e9) in
      while (not c.release) && Clock.ns () < deadline do
        Mutex.unlock c.mutex;
        Unix.sleepf 0.0002;
        Mutex.lock c.mutex
      done);
  unpark_check_crashed c ~tid

let on_hit t tid point =
  if tid < Array.length t.cells then begin
    let c = t.cells.(tid) in
    Mutex.lock c.mutex;
    if c.crashed then begin
      Mutex.unlock c.mutex;
      Smr.Probe.note_crashed tid;
      raise Crashed
    end;
    let i = Smr.Probe.point_index point in
    let n = c.countdown.(i) in
    if n > 0 then begin
      c.countdown.(i) <- n - 1;
      Mutex.unlock c.mutex
    end
    else if n = 0 then begin
      c.countdown.(i) <- -1;
      let action =
        match c.actions.(i) with
        | Some a -> a
        | None -> Stall { for_s = None }
      in
      record t { ev_tid = tid; ev_point = point; ev_action = action };
      match action with
      | Crash ->
          c.crashed <- true;
          Mutex.unlock c.mutex;
          Smr.Probe.note_crashed tid;
          raise Crashed
      | Stall { for_s } -> stall_here t c ~tid ~point ~for_s
    end
    else Mutex.unlock c.mutex
  end

let install t = Smr.Probe.install (on_hit t)
let uninstall () = Smr.Probe.uninstall ()

let arm t ~tid ~point ~after action =
  let c = t.cells.(tid) in
  Mutex.lock c.mutex;
  let i = Smr.Probe.point_index point in
  c.actions.(i) <- Some action;
  c.countdown.(i) <- after;
  Mutex.unlock c.mutex

let disarm t ~tid ~point =
  let c = t.cells.(tid) in
  Mutex.lock c.mutex;
  let i = Smr.Probe.point_index point in
  c.actions.(i) <- None;
  c.countdown.(i) <- -1;
  Mutex.unlock c.mutex

let apply t (s : schedule) =
  List.iter (fun r -> arm t ~tid:r.tid ~point:r.point ~after:r.after r.action)
    s

let resume t ~tid =
  let c = t.cells.(tid) in
  Mutex.lock c.mutex;
  c.release <- true;
  Condition.broadcast c.cond;
  Mutex.unlock c.mutex

(* Poison the tid: a parked domain wakes, finds [crashed] set and raises
   {!Crashed}; a running one raises at its next probe crossing. *)
let kill t ~tid =
  let c = t.cells.(tid) in
  Mutex.lock c.mutex;
  c.crashed <- true;
  c.release <- true;
  Condition.broadcast c.cond;
  Mutex.unlock c.mutex

(* Un-poison a tid whose dead handle has been recovered: clears the
   crashed/parked state and disarms every pending rule so a replacement
   worker spawned on the same tid does not instantly re-crash.  Only
   meaningful once the old domain is gone — a still-running domain would
   simply stop seeing faults. *)
let revive t ~tid =
  let c = t.cells.(tid) in
  Mutex.lock c.mutex;
  Smr.Probe.note_unparked tid;
  Smr.Probe.clear_crashed tid;
  c.crashed <- false;
  c.parked <- false;
  c.release <- false;
  Array.fill c.countdown 0 (Array.length c.countdown) (-1);
  Array.fill c.actions 0 (Array.length c.actions) None;
  Condition.broadcast c.cond;
  Mutex.unlock c.mutex

let release_all t =
  Array.iteri (fun tid _ -> resume t ~tid) t.cells

let parked t ~tid =
  let c = t.cells.(tid) in
  Mutex.lock c.mutex;
  let p = c.parked in
  Mutex.unlock c.mutex;
  p

let crashed t ~tid =
  let c = t.cells.(tid) in
  Mutex.lock c.mutex;
  let p = c.crashed in
  Mutex.unlock c.mutex;
  p

let wait_parked ?(timeout_s = 5.0) t ~tid =
  let deadline = Clock.ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    if parked t ~tid then true
    else if crashed t ~tid then false
    else if Clock.ns () > deadline then false
    else begin
      Unix.sleepf 0.0005;
      go ()
    end
  in
  go ()

(* Seeded schedule generator for the fuzzer.  Rules target worker tids
   only ([1, threads)): tid 0 stays fault-free so every fuzz run makes
   progress (retires keep happening while victims stall or crash).  Stalls
   always carry a finite deadline so runs terminate without an explicit
   resume. *)
let random_schedule ~threads ~seed : schedule =
  let rng = Workload.Rng.create ~seed in
  let n_rules = 1 + Workload.Rng.int rng (max 1 (threads - 1)) in
  let victims = max 1 (threads - 1) in
  List.init n_rules (fun _ ->
      let tid = 1 + Workload.Rng.int rng victims in
      let point =
        List.nth Smr.Probe.all_points
          (Workload.Rng.int rng Smr.Probe.n_points)
      in
      let after = Workload.Rng.int rng 2_000 in
      let action =
        if Workload.Rng.int rng 4 = 0 then Crash
        else
          Stall { for_s = Some (0.002 +. (0.001 *. float (Workload.Rng.int rng 40))) }
      in
      { tid; point; after; action })

let rule_to_string r =
  Printf.sprintf "%s tid=%d point=%s after=%d" (action_name r.action) r.tid
    (Smr.Probe.point_name r.point)
    r.after

(* Memory bound for a robust scheme with [stalled] faulted threads.

   Components (counted in nodes, i.e. [S.unreclaimed] units):
   - per running thread: its limbo/pending buffer may be full without
     having crossed its reclaim trigger (for HLN the buffer is
     [batch_size] deep) — and for the era/interval schemes a *running*
     reader's reservation also transiently pins retires whose lifetime
     intersects it, up to one era bump's worth ([2 * epoch_freq]) per
     reader even with no fault injected.  HP readers pin nothing beyond
     their own scan snapshot, so their per-thread term is the buffer
     alone.
   - per stalled thread, what its published protection can pin:
     * HP/HPopt: at most [slots] hazard-pointered nodes — but each of the
       [n] other threads also fails to reclaim anything its *own* scan sees
       protected, so the pinned set appears once per limbo buffer; the
       buffers are already counted, so the extra term is [slots] per
       stalled thread.
     * HE/IBR/HLN: the reservation (era / interval / era) pins nodes whose
       lifetime intersects it.  Between the stall and any later retire the
       era advances once per [epoch_freq] retires, so only nodes retired
       while the global era still intersected the stalled reservation are
       pinned: at most the structure's live set at stall time ([range]
       keys) plus [2 * epoch_freq] retires in flight around the era bump.
   - [adopted]: the post-recovery transient.  Each adoption parks up to
     one full orphan buffer in its adopter on top of the adopter's own
     buffer ([buffers] counts one per thread, and until the adopter's
     next pass it effectively owns two), so the term is one buffer per
     adopted handle — explicit, where it used to hide in a +256 flat
     slack.
   The stall/buffer components are doubled and the total gets a small
   constant floor — schedules are adversarial but the point of the
   assertion is "bounded, does not grow with ops", not a tight
   constant.  The floor only has to absorb sub-node rounding (a retire
   landing exactly on a trigger boundary on every thread at once): since
   [end_op] unpublishes every reservation between operations, nothing a
   thread protected in a *finished* operation can pin memory, so a
   one-buffer-era margin of 16 suffices where a flat +64 used to paper
   over the accounting. *)
let mem_bound (module S : Smr.Smr_intf.S) ~(config : Smr.Smr_intf.config)
    ~threads ~slots ~range ?(adopted = 0) ~stalled () =
  if not S.capabilities.Smr.Smr_intf.robust then None
  else
    let n = threads and k = stalled in
    let hp = S.name = "HP" || S.name = "HPopt" in
    (* With the adaptive controller on, a buffer may legitimately fill to
       the widened ceiling before its pass fires. *)
    let buffer_one =
      let static = max config.limbo_threshold config.batch_size in
      match config.adaptive with
      | `Off -> static
      | `On b -> max static b.Smr.Smr_intf.max_threshold
    in
    let per_thread =
      if hp then buffer_one else buffer_one + (2 * config.epoch_freq)
    in
    (* A neutralizing scheme's announcement is epoch-wide, not
       interval-narrow: a RUNNING reader pins every retire since its
       announce epoch until it either finishes or falls
       [neutralize_after] epochs behind, gets posted, and acknowledges
       at its next checkpoint.  That window — [neutralize_after] era
       bumps' worth of retires — is a per-running-reader transient, with
       no fault injected at all. *)
    let per_thread =
      if S.capabilities.Smr.Smr_intf.neutralizing then
        per_thread + (config.neutralize_after * config.epoch_freq)
      else per_thread
    in
    let per_stall = if hp then slots else range + (2 * config.epoch_freq) in
    (* HYB's clean-mode sweep uses the single-bound (min active lower)
       predicate, which pins every retire since the straggler began until
       the lag crosses [stale_eras] and the pass escalates to the full
       interval sweep: one extra window of [stale_eras] era bumps' worth
       of retires per stalled reservation. *)
    let per_stall =
      if S.name = "HYB" then per_stall + (config.stale_eras * config.epoch_freq)
      else per_stall
    in
    (* A neutralizing scheme (DBR) pins nothing once the signal is
       delivered, but delivery waits for the laggard to fall
       [neutralize_after] epochs behind: one window of that many era
       bumps' worth of retires per stalled reservation — the
       neutralization latency. *)
    let per_stall =
      if S.capabilities.Smr.Smr_intf.neutralizing then
        per_stall + (config.neutralize_after * config.epoch_freq)
      else per_stall
    in
    Some ((2 * ((n * per_thread) + (k * per_stall))) + (adopted * buffer_one) + 16)
