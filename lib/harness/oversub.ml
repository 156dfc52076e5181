(* Oversubscription: more workload threads than runnable "cores".

   The scheduler adversary the paper's robustness claims are about is a
   worker that is descheduled mid-operation — its reservations published,
   its epoch announcement pinned — for longer than any reclamation
   cadence.  Real oversubscription leaves that to the OS scheduler's
   mood; this module manufactures it deterministically with the chaos
   engine: of the [threads] workload tids, only [runnable] are allowed
   to run at a time, and the rest are parked {e mid-operation} at the
   next [Probe.Read] crossing (stalled with published reservations —
   exactly what a preempted thread looks like to the SMR scheme).

   The coordinator calls [tick] at its sample cadence to rotate: the
   longest-parked tid is resumed and the longest-running one is armed to
   park at its next read.  Rotation means every worker makes progress
   (the workload completes) while at any instant [threads - runnable]
   of them sit mid-operation — a fair, adversarial time-slicing of
   [runnable] cores across [threads] workers.

   Two subtleties, both load-bearing:

   - A resume issued before the victim actually parks is LOST
     ([Chaos.park] resets the release flag), so [tick] only resumes a
     tid the engine reports as parked; otherwise it waits for a later
     tick.  The rotation therefore never deadlocks on a slow parker.
   - [release] must disarm before resuming: an armed-but-unfired stall
     rule would otherwise fire after the release and park the victim
     with nobody left to wake it. *)

type t = {
  engine : Chaos.t;
  point : Smr.Probe.point;
  running : int Queue.t; (* oldest-running at the head *)
  parked : int Queue.t; (* oldest-parked at the head *)
  mutable active : bool;
  mutable rotations : int;
}

let arm_park t tid =
  Chaos.arm t.engine ~tid ~point:t.point ~after:0 (Chaos.Stall { for_s = None })

(* Tids already crashed by other fault schedules drop out of the
   rotation: resuming them is meaningless and re-arming them leaks an
   unfired rule. *)
let drop_crashed t q =
  let keep = Queue.create () in
  Queue.iter
    (fun tid -> if not (Chaos.crashed t.engine ~tid) then Queue.add tid keep)
    q;
  Queue.clear q;
  Queue.transfer keep q

let create ?(point = Smr.Probe.Read) engine ~tids ~runnable =
  let n = List.length tids in
  if runnable < 1 || runnable > n then
    invalid_arg
      (Printf.sprintf "Oversub.create: runnable must be in [1, %d] (got %d)" n
         runnable);
  let t =
    {
      engine;
      point;
      running = Queue.create ();
      parked = Queue.create ();
      active = true;
      rotations = 0;
    }
  in
  List.iteri
    (fun i tid ->
      if i < runnable then Queue.add tid t.running
      else begin
        arm_park t tid;
        Queue.add tid t.parked
      end)
    tids;
  t

let tick t =
  if t.active && not (Queue.is_empty t.parked) then begin
    drop_crashed t t.parked;
    drop_crashed t t.running;
    match Queue.peek_opt t.parked with
    | Some victim when Chaos.parked t.engine ~tid:victim ->
        ignore (Queue.pop t.parked);
        (* Swap before resuming: the resumed tid must see a full
           complement of runnable peers, not run ahead while the
           next victim is still being chosen. *)
        (match Queue.pop t.running with
        | tid ->
            arm_park t tid;
            Queue.add tid t.parked
        | exception Queue.Empty -> ());
        Chaos.resume t.engine ~tid:victim;
        Queue.add victim t.running;
        t.rotations <- t.rotations + 1
    | _ ->
        (* Armed but not yet parked (long op, or the victim is between
           ops): resuming now would be lost — wait for the next tick. *)
        ()
  end

let release t =
  if t.active then begin
    t.active <- false;
    Queue.iter
      (fun tid ->
        Chaos.disarm t.engine ~tid ~point:t.point;
        Chaos.resume t.engine ~tid)
      t.parked;
    (* Rules armed on running tids that never fired. *)
    Queue.iter (fun tid -> Chaos.disarm t.engine ~tid ~point:t.point) t.running
  end

let rotations t = t.rotations