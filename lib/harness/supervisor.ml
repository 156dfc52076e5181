(* Crash supervision for soak workers.

   Each supervised worker owns one heartbeat cell (cache-line spaced via
   [Memory.Padded] so the per-op bump never false-shares with a neighbour)
   and bumps it once per completed operation.  The supervisor runs on the
   coordinating domain — piggybacked on the soak engine's gauge-sample
   loop, no extra domain — and per check pass drives a small per-tid state
   machine:

     Running --(Crashed notify)--> recover: join the dead domain,
       {!Chaos.revive} the tid, run the instance's [recover] (deactivate +
       re-register + adopt + sweep), then either schedule a respawn
       (Waiting, after [backoff]) or give up (Abandoned) once
       [max_restarts] is spent.
     Running --(heartbeat stale past [heartbeat_timeout])--> poison the
       tid via {!Chaos.kill}; the worker raises {!Chaos.Crashed} at its
       next probe crossing and flows into the path above with reason
       ["heartbeat-timeout"].  A tid parked by a deliberate stall schedule
       is *not* dead — its park state resets the watchdog instead.
     Waiting --(deadline passed)--> respawn a replacement worker on the
       same tid (its fresh handle was already registered by [recover]).

   Ordering: the recover callback runs only after [join ~tid] returns, so
   the dead worker's domain is provably gone before its handle is
   deactivated — the precondition of {!Smr.Smr_intf.S.deactivate}.  The
   revive precedes recover because the post-adoption sweep crosses probe
   points with the victim's tid and must not re-raise on the poisoned
   cell.

   Limits of the watchdog: poisoning only takes effect at a probe
   crossing, so a worker wedged *outside* any operation (or dead from a
   non-[Crashed] exception, e.g. the unsafe variant's simulated
   use-after-free) is killed but never recovered — the supervisor marks
   it killed once and leaves it, rather than joining a domain it cannot
   prove dead. *)

type config = {
  heartbeat_timeout : float; (* seconds without a beat before presumed dead *)
  max_restarts : int; (* respawn budget per tid *)
  backoff : float; (* base respawn delay; doubles per restart of the tid *)
  backoff_cap : float; (* ceiling on the exponential delay *)
}

(* A crash-looping worker with no backoff respawns the instant its
   recovery finishes — with a fast [check] cadence that is a hot spin
   through the whole join/revive/recover/respawn cycle.  The exponential
   ramp makes the second and third respawns of the same tid
   progressively lazier; the FIRST respawn stays immediate so a single
   isolated crash recovers with seed-era latency (the supervised
   recovery tests time exactly that window). *)
let default =
  { heartbeat_timeout = 1.0; max_restarts = 3; backoff = 0.05; backoff_cap = 1.0 }

(* Deadline for respawn number [restarts] (1-based).  The first respawn
   of a tid is immediate — one crash is not yet a loop.  From the second
   on: capped exponential, [backoff * 2^(r-2)] clamped to
   [backoff_cap], then jittered into [[0.5, 1.0]] of itself by [u] (a
   uniform draw in [[0, 1)]).  The jitter decorrelates respawn storms:
   workers killed by the same fault burst would otherwise all hit their
   deadlines on the same [check] pass forever.  Pure, so tests can pin
   the exact sequence. *)
let respawn_delay config ~restarts ~u =
  let r = max 1 restarts in
  if r = 1 then 0.0
  else
    (* Saturating 2^(r-2): [max_restarts] is small, but a caller's
       config is not bounded — avoid float overflow past 2^60. *)
    let raw =
      if r - 2 >= 60 then config.backoff_cap
      else min config.backoff_cap (config.backoff *. Float.of_int (1 lsl (r - 2)))
    in
    raw *. (0.5 +. (0.5 *. u))

type state =
  | Running
  | Waiting of float (* respawn deadline, seconds since release *)
  | Abandoned

type t = {
  config : config;
  workers : int;
  rng : Workload.Rng.t; (* jitter source; coordinator-only *)
  beats : int Memory.Padded.t; (* written by workers, one cell each *)
  crash_flags : bool Memory.Padded.t; (* set by a dying worker's handler *)
  (* Supervisor-private state, touched only from the coordinator: *)
  last_beat : int array;
  last_change : float array;
  killed : bool array; (* watchdog kill issued, awaiting the Crashed notify *)
  restarts : int array;
  state : state array;
  mutable events : Metrics.recovery_event list; (* reverse order *)
}

let create ?(seed = 0x5EED) config ~workers =
  if workers < 1 then invalid_arg "Supervisor.create: workers must be >= 1";
  {
    config;
    workers;
    rng = Workload.Rng.create ~seed;
    beats = Memory.Padded.create workers (fun _ -> 0);
    crash_flags = Memory.Padded.create workers (fun _ -> false);
    last_beat = Array.make workers 0;
    last_change = Array.make workers 0.0;
    killed = Array.make workers false;
    restarts = Array.make workers 0;
    state = Array.make workers Running;
    events = [];
  }

let beat_cell t ~tid = Memory.Padded.cell t.beats tid

let notify_crashed t ~tid = Memory.Padded.set t.crash_flags tid true

let events t = List.rev t.events

(* One dead worker: join, un-poison, recover the handle, decide what
   happens next.  Called with the crash flag already consumed. *)
let handle_dead t ~now ~final ~engine ~recover ~join ~tid =
  join ~tid;
  Chaos.revive (engine ()) ~tid;
  recover ~tid;
  let reason = if t.killed.(tid) then "heartbeat-timeout" else "crash" in
  t.killed.(tid) <- false;
  t.restarts.(tid) <- t.restarts.(tid) + 1;
  let action, next =
    if final then ("recover-at-stop", Abandoned)
    else if t.restarts.(tid) > t.config.max_restarts then ("abandon", Abandoned)
    else begin
      let u = Float.of_int (Workload.Rng.int t.rng 1_000_000) /. 1e6 in
      let delay = respawn_delay t.config ~restarts:t.restarts.(tid) ~u in
      ("respawn", Waiting (now +. delay))
    end
  in
  t.state.(tid) <- next;
  t.events <-
    {
      Metrics.rv_t = now;
      rv_tid = tid;
      rv_reason = reason;
      rv_action = action;
      rv_restarts = t.restarts.(tid);
    }
    :: t.events

let watchdog t ~now ~engine ~tid =
  let b = Memory.Padded.get t.beats tid in
  if b <> t.last_beat.(tid) then begin
    t.last_beat.(tid) <- b;
    t.last_change.(tid) <- now
  end
  else if
    (not t.killed.(tid))
    && now -. t.last_change.(tid) > t.config.heartbeat_timeout
  then begin
    let e = engine () in
    if Chaos.parked e ~tid then
      (* Deliberately stalled by a fault schedule: alive, just adversarial.
         Reset the clock so the stall does not accrue towards a kill. *)
      t.last_change.(tid) <- now
    else begin
      t.killed.(tid) <- true;
      Chaos.kill e ~tid
    end
  end

let check t ~now ~final ~engine ~recover ~join ~respawn =
  for tid = 0 to t.workers - 1 do
    match t.state.(tid) with
    | Abandoned -> ()
    | Waiting deadline ->
        if final then t.state.(tid) <- Abandoned
        else if now >= deadline then begin
          respawn ~tid;
          t.state.(tid) <- Running;
          t.last_beat.(tid) <- Memory.Padded.get t.beats tid;
          t.last_change.(tid) <- now
        end
    | Running ->
        if Memory.Padded.get t.crash_flags tid then begin
          Memory.Padded.set t.crash_flags tid false;
          handle_dead t ~now ~final ~engine ~recover ~join ~tid
        end
        else if not final then watchdog t ~now ~engine ~tid
  done
