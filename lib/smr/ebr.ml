(* EBR: epoch-based reclamation (Fraser).

   Threads publish the global epoch on [start_op]; retired nodes are tagged
   with the epoch current at retire time (stamped into their header) and
   freed once every active thread has published a strictly larger epoch (a
   node unlinked at epoch [e] can only be held by operations that began at
   [<= e]).  The epoch advances only when all active threads have caught up
   with it, which is exactly why a stalled thread makes memory usage
   unbounded: EBR is fast but not robust.

   Reservations live in a [Padded] array (one cache line per thread) and
   the limbo list is the shared allocation-free [Limbo_local] buffer. *)

let name = "EBR"

(* Not robust (a stalled thread vetoes the advance), but recoverable: once
   a dead handle's reservation is withdrawn the epoch moves again and
   everything the victim pinned becomes sweepable. *)
let capabilities =
  {
    Smr_intf.robust = false;
    recoverable = true;
    neutralizing = false;
    adaptive = true;
  }

let inactive = max_int

type t = {
  epoch : int Atomic.t;
  reservations : int Memory.Padded.t; (* published epoch, [inactive] if idle *)
  in_limbo : Memory.Tcounter.t;
  seats : Seats.t;
  config : Smr_intf.config;
  tuners : Tuner.t option array; (* per-tid controllers, for [stats] *)
}

type th = {
  global : t;
  id : int;
  my_resv : int Atomic.t; (* this thread's reservation cell *)
  limbo : Limbo_local.t;
  mutable deactivated : bool;
}

let create ?config ~threads ~slots:_ () =
  let config =
    match config with Some c -> c | None -> Smr_intf.default_config ~threads
  in
  {
    epoch = Atomic.make 1;
    reservations = Memory.Padded.create threads (fun _ -> inactive);
    in_limbo = Memory.Tcounter.create ~threads;
    seats = Seats.create ~threads;
    config;
    tuners = Array.make threads None;
  }

let register t ~tid =
  Seats.claim t.seats ~tid;
  let limbo =
    Limbo_local.create ~config:t.config ~start:t.config.limbo_threshold
      ~in_limbo:t.in_limbo ~tid
  in
  t.tuners.(tid) <- Some (Limbo_local.tuner limbo);
  {
    global = t;
    id = tid;
    my_resv = Memory.Padded.cell t.reservations tid;
    limbo;
    deactivated = false;
  }

let tid th = th.id

let start_op th =
  Atomic.set th.my_resv (Atomic.get th.global.epoch);
  Probe.hit th.id Probe.Start_op

let end_op th = Atomic.set th.my_resv inactive

(* The epoch reservation published by [start_op] already covers every node
   reachable during the operation: the staged read is a plain load (plus
   the injection-point crossing, a never-taken branch when chaos is off). *)
type 'v reader = th

let reader th _ = th

let[@inline] read_field (th : _ reader) ~slot:_ field =
  Probe.hit th.id Probe.Read;
  Atomic.get field

let protect r tok ~slot field =
  Smr_intf.Guard.embed tok (read_field r ~slot field)

include Smr_intf.Bracket (struct
  type nonrec th = th

  let start_op = start_op
  let end_op = end_op
  let on_neutralized _ = ()
end)

let mask _ = ()
let unmask _ = ()
let dup _ ~src:_ ~dst:_ = ()
let clear_slot _ ~slot:_ = ()
let on_alloc _ _ = ()

let min_reservation t =
  let n = Memory.Padded.length t.reservations in
  let rec go i acc =
    if i = n then acc
    else go (i + 1) (min acc (Memory.Padded.get t.reservations i))
  in
  go 0 inactive

(* Advance the epoch if every active thread has published the current one.
   A single stalled thread vetoes the advance — the unboundedness the paper
   motivates robustness with. *)
let try_advance t =
  let e = Atomic.get t.epoch in
  let n = Memory.Padded.length t.reservations in
  let rec all_current i =
    i = n
    ||
    let v = Memory.Padded.get t.reservations i in
    (v = inactive || v >= e) && all_current (i + 1)
  in
  if all_current 0 then ignore (Atomic.compare_and_set t.epoch e (e + 1))

let reclaim_pass th =
  Probe.hit th.id Probe.Reclaim;
  let safe_before = min_reservation th.global in
  Limbo_local.sweep th.limbo ~protected_:(fun r ->
      Memory.Hdr.retire_era r.Smr_intf.hdr >= safe_before)

let retire th (r : Smr_intf.reclaimable) =
  let t = th.global in
  Probe.hit th.id Probe.Retire;
  Memory.Hdr.mark_retired r.hdr;
  Memory.Hdr.set_retire_era r.hdr (Atomic.get t.epoch);
  Limbo_local.push th.limbo r;
  if Limbo_local.retires th.limbo mod t.config.epoch_freq = 0 then
    try_advance t;
  if Limbo_local.length th.limbo >= Limbo_local.threshold th.limbo then
    reclaim_pass th

let flush th =
  try_advance th.global;
  reclaim_pass th

let unreclaimed t = Memory.Tcounter.total t.in_limbo

let stats t =
  [
    ("epoch", Atomic.get t.epoch);
    ("in_limbo", unreclaimed t);
    ("active_handles", Seats.total t.seats);
  ]
  @ Tuner.stats_of_array t.tuners

let set_pressure t on = Tuner.set_pressure_array t.tuners on

let deactivate th =
  if not th.deactivated then begin
    th.deactivated <- true;
    (* Withdrawing the reservation is the whole cure: the crashed
       operation can no longer hold references, so dropping its epoch
       vote is safe and un-vetoes [try_advance]. *)
    Atomic.set th.my_resv inactive;
    Seats.release th.global.seats ~tid:th.id
  end

let adopt ~victim ~into =
  if not victim.deactivated then
    invalid_arg "EBR.adopt: victim not deactivated";
  Limbo_local.adopt ~victim:victim.limbo ~into:into.limbo
