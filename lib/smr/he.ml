(* HE: hazard eras (Ramalhete & Correia).

   Slots hold logical timestamps ("eras") instead of pointers.  A protected
   read publishes the current global era in the slot and loops until the era
   is stable across the load; a retired node is reclaimable once no published
   era intersects its [birth, retire] lifetime.  The snapshot optimisation
   from [26] is applied to the limbo scan (the paper applies it to HE and IBR
   as well as HP) — the snapshot now lands in a per-thread scratch array
   reused across passes instead of a freshly consed list. *)

let name = "HE"

let capabilities =
  {
    Smr_intf.robust = true;
    recoverable = true;
    neutralizing = false;
    adaptive = true;
  }
let no_era = 0

type t = {
  era : int Atomic.t;
  slots : int Memory.Padded.t array; (* published eras; [no_era] if empty *)
  in_limbo : Memory.Tcounter.t;
  seats : Seats.t;
  config : Smr_intf.config;
  tuners : Tuner.t option array; (* per-tid controllers, for [stats] *)
}

type th = {
  global : t;
  id : int;
  my_slots : int Atomic.t array; (* this thread's cells, un-wrapped once *)
  limbo : Limbo_local.t;
  scratch : int array; (* era snapshot, one pass at a time *)
  mutable deactivated : bool;
}

let create ?config ~threads ~slots () =
  let config =
    match config with Some c -> c | None -> Smr_intf.default_config ~threads
  in
  {
    era = Atomic.make 1;
    slots =
      Array.init threads (fun _ -> Memory.Padded.create slots (fun _ -> no_era));
    in_limbo = Memory.Tcounter.create ~threads;
    seats = Seats.create ~threads;
    config;
    tuners = Array.make threads None;
  }

let register t ~tid =
  Seats.claim t.seats ~tid;
  let row = t.slots.(tid) in
  let slots = Memory.Padded.length row in
  let limbo =
    Limbo_local.create ~config:t.config ~start:t.config.limbo_threshold
      ~in_limbo:t.in_limbo ~tid
  in
  t.tuners.(tid) <- Some (Limbo_local.tuner limbo);
  {
    global = t;
    id = tid;
    my_slots = Array.init slots (fun i -> Memory.Padded.cell row i);
    limbo;
    scratch = Array.make (Array.length t.slots * slots) no_era;
    deactivated = false;
  }

let tid th = th.id
let start_op th = Probe.hit th.id Probe.Start_op
let end_op th = Array.iter (fun c -> Atomic.set c no_era) th.my_slots

(* Publish the global era for this slot; stable-era validation replaces HP's
   pointer re-read and needs fewer barriers in the original setting.  Era
   validation needs no header access, so the staged reader is just the
   handle ([desc] is unused).  The loop lives at top level with explicit
   arguments — an inner [let rec] would capture its environment and cons a
   closure on every call.  [era] is annotated: left polymorphic, the
   [e = prev] test compiles to a C call to the generic [compare] on every
   protected load. *)
type 'v reader = th

let reader th _ = th

let rec stable_era_loop field (era : int Atomic.t) cell prev =
  let v = Atomic.get field in
  let e = Atomic.get era in
  if e = prev then v
  else begin
    Atomic.set cell e;
    stable_era_loop field era cell e
  end

let[@inline] read_field (th : _ reader) ~slot field =
  Probe.hit th.id Probe.Read;
  let cell = th.my_slots.(slot) in
  stable_era_loop field th.global.era cell (Atomic.get cell)

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

let dup th ~src ~dst = Atomic.set th.my_slots.(dst) (Atomic.get th.my_slots.(src))
let clear_slot th ~slot = Atomic.set th.my_slots.(slot) no_era
let on_alloc th hdr = Memory.Hdr.set_birth hdr (Atomic.get th.global.era)

let reclaim_pass th =
  Probe.hit th.id Probe.Reclaim;
  let t = th.global in
  (* Snapshot of all published eras (HPopt-style optimisation), captured
     once per pass into the reused scratch array. *)
  let rows = Array.length t.slots in
  let rec fill_row i k =
    if i = rows then k
    else begin
      let row = t.slots.(i) in
      let cols = Memory.Padded.length row in
      let rec fill_col j k =
        if j = cols then k
        else
          let e = Memory.Padded.get row j in
          if e = no_era then fill_col (j + 1) k
          else begin
            th.scratch.(k) <- e;
            fill_col (j + 1) (k + 1)
          end
      in
      fill_row (i + 1) (fill_col 0 k)
    end
  in
  let k = fill_row 0 0 in
  Limbo_local.sweep th.limbo ~protected_:(fun (r : Smr_intf.reclaimable) ->
      let birth = Memory.Hdr.birth r.hdr in
      let retire = Memory.Hdr.retire_era r.hdr in
      let rec conflicts i =
        i < k
        && ((birth <= th.scratch.(i) && th.scratch.(i) <= retire)
           || conflicts (i + 1))
      in
      conflicts 0)

let retire th (r : Smr_intf.reclaimable) =
  let t = th.global in
  Probe.hit th.id Probe.Retire;
  Memory.Hdr.mark_retired r.hdr;
  Memory.Hdr.set_retire_era r.hdr (Atomic.get t.era);
  Limbo_local.push th.limbo r;
  if Limbo_local.retires th.limbo mod t.config.epoch_freq = 0 then
    Atomic.incr t.era;
  if Limbo_local.length th.limbo >= Limbo_local.threshold th.limbo then
    reclaim_pass th

let flush th = reclaim_pass th
let unreclaimed t = Memory.Tcounter.total t.in_limbo

let stats t =
  [
    ("era", Atomic.get t.era);
    ("in_limbo", unreclaimed t);
    ("active_handles", Seats.total t.seats);
  ]
  @ Tuner.stats_of_array t.tuners

let set_pressure t on = Tuner.set_pressure_array t.tuners on

let deactivate th =
  if not th.deactivated then begin
    th.deactivated <- true;
    (* Clearing the published eras is exactly [end_op]: the dead
       operation can no longer dereference, so its reservations stop
       intersecting retired lifetimes. *)
    Array.iter (fun c -> Atomic.set c no_era) th.my_slots;
    Seats.release th.global.seats ~tid:th.id
  end

let adopt ~victim ~into =
  if not victim.deactivated then
    invalid_arg "HE.adopt: victim not deactivated";
  Limbo_local.adopt ~victim:victim.limbo ~into:into.limbo
