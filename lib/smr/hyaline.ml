(* Hyaline-1S (Nikolaev & Ravindran, PLDI'21).

   Threads publish a single birth-era reservation like IBR, but reclamation
   works by reference counting retired *batches*: the retiring thread
   dispatches a full batch onto the local list of every thread whose
   reservation may cover the batch (era >= the batch's minimum birth era),
   incrementing the batch's reference counter per insertion.  A thread
   finishing its operation detaches its local list and decrements the
   counters; whoever drops a counter to zero frees the whole batch — hence
   reclamation is done by *any* thread (§2.2.5), and the only per-read cost
   is the IBR-style birth-era validation.

   Robustness: a stalled thread with reservation era [e] is skipped by every
   batch whose minimum birth era exceeds [e], so it can only pin the finitely
   many nodes born before it stalled.

   The pending batch accumulates in an allocation-free [Limbo_local]
   buffer (the retire fast path stores into an array); dispatch detaches
   it as one [reclaimable array] per batch.  Era and head cells are
   [Padded] — both are written on every operation. *)

let name = "HLN"

let capabilities =
  {
    Smr_intf.robust = true;
    recoverable = true;
    neutralizing = false;
    adaptive = true;
  }
let inactive_era = -1

type batch = {
  nodes : Smr_intf.reclaimable array;
  min_birth : int;
  refs : int Atomic.t;
}

type cell = Inactive | Nil | Cons of cons
and cons = { batch : batch; mutable next : cell }

type t = {
  era : int Atomic.t;
  eras : int Memory.Padded.t; (* reservation era; [inactive_era] if idle *)
  heads : cell Memory.Padded.t; (* per-thread dispatch lists *)
  in_limbo : Memory.Tcounter.t;
  seats : Seats.t;
  config : Smr_intf.config;
  tuners : Tuner.t option array; (* per-tid controllers, for [stats] *)
}

type th = {
  global : t;
  id : int;
  my_era : int Atomic.t;
  my_head : cell Atomic.t;
  pending : Limbo_local.t;
  mutable pending_min_birth : int;
  mutable deactivated : bool;
}

let create ?config ~threads ~slots:_ () =
  let config =
    match config with Some c -> c | None -> Smr_intf.default_config ~threads
  in
  {
    era = Atomic.make 1;
    eras = Memory.Padded.create threads (fun _ -> inactive_era);
    heads = Memory.Padded.create threads (fun _ -> Inactive);
    in_limbo = Memory.Tcounter.create ~threads;
    seats = Seats.create ~threads;
    config;
    tuners = Array.make threads None;
  }

let register t ~tid =
  Seats.claim t.seats ~tid;
  (* The tuned trigger here is the *batch size*, not the limbo threshold:
     dispatch is Hyaline's pass, so that is the knob the controller
     moves. *)
  let pending =
    Limbo_local.create ~config:t.config ~start:t.config.batch_size
      ~in_limbo:t.in_limbo ~tid
  in
  t.tuners.(tid) <- Some (Limbo_local.tuner pending);
  {
    global = t;
    id = tid;
    my_era = Memory.Padded.cell t.eras tid;
    my_head = Memory.Padded.cell t.heads tid;
    pending;
    pending_min_birth = max_int;
    deactivated = false;
  }

let tid th = th.id

let free_batch th batch =
  Array.iter
    (fun (r : Smr_intf.reclaimable) ->
      r.free th.id;
      Memory.Tcounter.decr th.global.in_limbo ~tid:th.id)
    batch.nodes

let release_ref th batch =
  if Atomic.fetch_and_add batch.refs (-1) = 1 then free_batch th batch

let start_op th =
  Atomic.set th.my_era (Atomic.get th.global.era);
  (* Between operations the head is [Inactive] and dispatchers never push to
     an inactive list, so this transition cannot race with a push. *)
  if not (Atomic.compare_and_set th.my_head Inactive Nil) then
    invalid_arg "Hyaline.start_op: unbalanced start_op/end_op";
  Probe.hit th.id Probe.Start_op

let end_op th =
  Atomic.set th.my_era inactive_era;
  let head = th.my_head in
  let rec detach () =
    let cur = Atomic.get head in
    if Atomic.compare_and_set head cur Inactive then cur else detach ()
  in
  let rec drain = function
    | Inactive | Nil -> ()
    | Cons c ->
        let next = c.next in
        release_ref th c.batch;
        drain next
  in
  drain (detach ())

(* IBR-style birth-era validation against the single reservation era, with
   the load and header access resolved through the prebuilt descriptor.
   Top-level loop with explicit arguments: an inner [let rec] would cons a
   closure per call. *)
type 'v reader = { r_th : th; r_desc : 'v Smr_intf.desc }

let reader th desc = { r_th = th; r_desc = desc }

let rec read_field_loop (desc : _ Smr_intf.desc) field resv era =
  let v = Atomic.get field in
  if desc.Smr_intf.is_null v then v
  else if Memory.Hdr.birth (desc.Smr_intf.hdr v) <= Atomic.get resv then v
  else begin
    Atomic.set resv (Atomic.get era);
    read_field_loop desc field resv era
  end

let read_field r ~slot:_ field =
  Probe.hit r.r_th.id Probe.Read;
  read_field_loop r.r_desc field r.r_th.my_era r.r_th.global.era

include Smr_intf.Bracket (struct
  type nonrec th = th
  type nonrec 'v reader = 'v reader

  let start_op = start_op
  let end_op = end_op
  let read_field = read_field
  let on_neutralized _ = ()
end)

let mask _ = ()
let unmask _ = ()

let dup _ ~src:_ ~dst:_ = ()
let clear_slot _ ~slot:_ = ()
let on_alloc th hdr = Memory.Hdr.set_birth hdr (Atomic.get th.global.era)

(* Dispatch the pending batch: push one cons cell onto the list of every
   thread whose reservation might cover the batch.  The reference counter
   starts at 1 (the dispatcher's own reference) and is incremented *before*
   each push attempt, so it can never transiently reach zero while pushes
   are in flight. *)
let dispatch th =
  Probe.hit th.id Probe.Reclaim;
  if Limbo_local.length th.pending > 0 then begin
    let t = th.global in
    let batch =
      {
        nodes = Limbo_local.take th.pending;
        min_birth = th.pending_min_birth;
        refs = Atomic.make 1;
      }
    in
    th.pending_min_birth <- max_int;
    let threads = Memory.Padded.length t.eras in
    for j = 0 to threads - 1 do
      let era_j = Memory.Padded.get t.eras j in
      if era_j <> inactive_era && era_j >= batch.min_birth then begin
        ignore (Atomic.fetch_and_add batch.refs 1);
        let head = Memory.Padded.cell t.heads j in
        let rec push () =
          match Atomic.get head with
          | Inactive ->
              (* The thread finished its op meanwhile; it cannot hold batch
                 nodes anymore. *)
              release_ref th batch
          | cur ->
              let c = { batch; next = cur } in
              if Atomic.compare_and_set head cur (Cons c) then ()
              else push ()
        in
        push ()
      end
    done;
    release_ref th batch
  end

let retire th (r : Smr_intf.reclaimable) =
  let t = th.global in
  Probe.hit th.id Probe.Retire;
  Memory.Hdr.mark_retired r.hdr;
  Memory.Hdr.set_retire_era r.hdr (Atomic.get t.era);
  Limbo_local.push th.pending r;
  th.pending_min_birth <- min th.pending_min_birth (Memory.Hdr.birth r.hdr);
  if Limbo_local.retires th.pending mod t.config.epoch_freq = 0 then
    Atomic.incr t.era;
  if Limbo_local.length th.pending >= Limbo_local.threshold th.pending then
    dispatch th

let flush th = dispatch th
let unreclaimed t = Memory.Tcounter.total t.in_limbo

let stats t =
  [
    ("era", Atomic.get t.era);
    ("in_limbo", unreclaimed t);
    ("active_handles", Seats.total t.seats);
  ]
  @ Tuner.stats_of_array t.tuners

let set_pressure t on = Tuner.set_pressure_array t.tuners on

(* Withdrawing the reservation and draining the dispatch list is exactly
   [end_op] — including the Inactive CAS that makes future dispatchers
   skip this thread, so the padded head cell is reusable by the next
   registration of the tid (it used to stay mid-list forever, tripping
   [start_op]'s ownership CAS on the replacement handle).  The drain
   releases the victim's batch references with the victim's id: its
   domain is dead, so its pool rows have no other user. *)
let deactivate th =
  if not th.deactivated then begin
    th.deactivated <- true;
    end_op th;
    Seats.release th.global.seats ~tid:th.id
  end

let adopt ~victim ~into =
  if not victim.deactivated then
    invalid_arg "HLN.adopt: victim not deactivated";
  if Limbo_local.length victim.pending > 0 then begin
    into.pending_min_birth <-
      min into.pending_min_birth victim.pending_min_birth;
    victim.pending_min_birth <- max_int;
    Limbo_local.adopt ~victim:victim.pending ~into:into.pending
  end
