(* DBR: DEBRA+-style epoch reclamation with neutralization (Brown).

   The read side is EBR: [start_op] publishes the global epoch into a
   per-thread [Padded] announcement cell and every protected load is a
   plain atomic load.  The reclamation side is IBR-shaped: the epoch
   advances unconditionally on the retire cadence (no all-current veto)
   and a sweep frees every node whose retire epoch is below the minimum
   *pinned* announcement.  What keeps that sound without the veto is the
   signature DEBRA+ move — a reclaimer that finds an announcement lagging
   the epoch by more than [config.neutralize_after] *neutralizes* the
   laggard instead of waiting for it: the lagging operation is aborted at
   its next checkpoint and restarted from the root by the {!Smr_intf.Bracket}
   retry loop, after which its announcement no longer pins anything old.
   The result is the first scheme in the matrix that is both EBR-fast and
   robust.

   {b Announcement-cell protocol.}  One int cell per thread:

   - [max_int] ("inactive"): idle, pins nothing.
   - [e > 0]: active operation that started at epoch [e]; pins [e].
   - [-e]: a neutralization has been posted but not yet acknowledged.
     Still pins [e] — the laggard may be mid-dereference.
   - [min_int] ("delivered"): the neutralization provably reached the
     laggard (see below); pins nothing.

   Every transition out of the negative states is CAS-guarded against the
   exact previous value, so the plain [start_op]/[end_op] stores can never
   lose a post that still matters: a post only succeeds against the exact
   active value it read, and a delivery only against the exact posted
   value — if the laggard already acknowledged and restarted, both fail
   harmlessly and the cell's fresh (young) announcement speaks for itself.

   {b Delivery.}  A running laggard acknowledges the post itself: its next
   checkpoint (one atomic load and a never-taken branch after [Probe.hit]
   in [start_op] and the protected load — the op fast paths stay at 0.00
   minor words/op) sees the negative cell and raises {!Smr_intf.Neutralized};
   the bracket's [on_neutralized] withdraws the announcement.  A laggard
   that is not running cannot acknowledge, and the reclaimer must not
   assume it ever will (it may be stalled forever) — but it also must not
   unpin a thread that could still wake up inside a dereference.  The
   escape hatch is the {!Probe.parked_at} registry: the chaos engine
   records where a domain it parked is sleeping.  If the laggard is parked
   {e at a checkpoint} ([Start_op] or [Read] — never [Retire]/[Reclaim],
   where raising would leak the node being retired) and is not masked,
   the very next thing it executes on waking is the checkpoint itself, so
   the reclaimer may mark the neutralization delivered ([min_int]) and
   stop pinning.  With OCaml's sequentially consistent atomics the
   argument is: the reclaimer's read of the park flag came after the
   laggard parked and before it cleared the flag on waking, both of which
   precede the checkpoint load, so the checkpoint load is after the post
   in the SC total order and must observe a negative cell.  A domain that
   crashes (raises out of the park) never reaches a checkpoint — its pin
   stays until the supervisor [deactivate]s the handle, which is the same
   bounded-by-recovery story every robust scheme has.

   {b Masking.}  Structures bracket post-linearization completion work
   that still performs protected loads in [mask]/[unmask] (one padded
   per-thread flag).  A posted-but-masked laggard keeps its pin and the
   checkpoints pass; the next unmasked checkpoint (or [end_op]) resolves
   the post.  The reclaimer checks the mask before delivering to a parked
   laggard; the same SC argument as above (the mask is set before any
   parkable crossing inside the masked section) makes the check safe. *)

let name = "DBR"

let capabilities =
  {
    Smr_intf.robust = true;
    recoverable = true;
    neutralizing = true;
    adaptive = true;
  }

let inactive = max_int (* idle; pins nothing *)
let delivered = min_int (* neutralization delivered; pins nothing *)

type t = {
  epoch : int Atomic.t;
  announces : int Memory.Padded.t; (* announcement cells, see protocol above *)
  masks : int Memory.Padded.t; (* nesting depth; > 0 = non-restartable *)
  in_limbo : Memory.Tcounter.t;
  seats : Seats.t;
  config : Smr_intf.config;
  tuners : Tuner.t option array; (* per-tid controllers, for [stats] *)
  posted : int Atomic.t; (* neutralizations posted by reclaimers *)
  restarts : int Atomic.t; (* neutralizations absorbed by brackets *)
}

type th = {
  global : t;
  id : int;
  my_ann : int Atomic.t; (* this thread's announcement cell *)
  my_mask : int Atomic.t; (* this thread's mask cell *)
  limbo : Limbo_local.t;
  mutable deactivated : bool;
}

let create ?config ~threads ~slots:_ () =
  let config =
    match config with Some c -> c | None -> Smr_intf.default_config ~threads
  in
  {
    epoch = Atomic.make 1;
    announces = Memory.Padded.create threads (fun _ -> inactive);
    masks = Memory.Padded.create threads (fun _ -> 0);
    in_limbo = Memory.Tcounter.create ~threads;
    seats = Seats.create ~threads;
    config;
    tuners = Array.make threads None;
    posted = Atomic.make 0;
    restarts = Atomic.make 0;
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
    my_ann = Memory.Padded.cell t.announces tid;
    my_mask = Memory.Padded.cell t.masks tid;
    limbo;
    deactivated = false;
  }

let tid th = th.id

(* The checkpoint: one atomic load of the thread's own (cached-exclusive)
   announcement cell and a never-taken branch.  Placed immediately after
   the [Probe.hit] crossing so a domain parked at the crossing executes
   the checkpoint first thing on waking — the delivery argument above
   depends on exactly this ordering.  A masked handle defers instead of
   raising (the operation is past its linearization point). *)
let[@inline] check th =
  if Atomic.get th.my_ann < 0 && Atomic.get th.my_mask = 0 then
    raise Smr_intf.Neutralized

let start_op th =
  Atomic.set th.my_ann (Atomic.get th.global.epoch);
  Probe.hit th.id Probe.Start_op;
  check th

(* The plain store acknowledges any pending post implicitly: a post CAS
   can only succeed against the exact active value, never against
   [inactive]. *)
let end_op th =
  Atomic.set th.my_ann inactive;
  if Atomic.get th.my_mask <> 0 then Atomic.set th.my_mask 0

(* The epoch announcement already covers every node reachable during the
   operation, so the protected load is a plain load plus the checkpoint. *)
type 'v reader = th

let reader th _ = th

let read_field (th : _ reader) ~slot:_ field =
  Probe.hit th.id Probe.Read;
  check th;
  Atomic.get field

(* Bracket restart: withdraw the announcement (the acknowledgement the
   reclaimer is waiting for), drop the mask if a crash-interleaved path
   left it set, count, and let the retry loop re-run the body. *)
let on_neutralized th =
  Atomic.set th.my_ann inactive;
  if Atomic.get th.my_mask <> 0 then Atomic.set th.my_mask 0;
  Atomic.incr th.global.restarts

include Smr_intf.Bracket (struct
  type nonrec th = th
  type nonrec 'v reader = 'v reader

  let start_op = start_op
  let end_op = end_op
  let read_field = read_field
  let on_neutralized = on_neutralized
end)

(* The mask cell is a nesting depth, not a flag: a completion section
   that calls a helper with its own [mask]/[unmask] pair (e.g. a skiplist
   level-link loop reusing a masked micro-insert) must stay masked until
   the *outermost* [unmask].  Only the owner moves the cell between
   non-zero values ([end_op]/[on_neutralized]/[deactivate] reset it to 0,
   never increment), so the read-modify-write is single-writer safe; the
   reclaimer only ever compares it against 0.  [unmask] clamps at 0 so a
   stray extra call cannot park the cell at a negative depth and mask the
   handle forever. *)
let mask th = Atomic.set th.my_mask (Atomic.get th.my_mask + 1)

let unmask th =
  let d = Atomic.get th.my_mask in
  if d > 0 then Atomic.set th.my_mask (d - 1)
let dup _ ~src:_ ~dst:_ = ()
let clear_slot _ ~slot:_ = ()
let on_alloc _ _ = ()

(* The epoch a cell value pins: [inactive]/[delivered] pin nothing,
   a posted [-e] still pins [e]. *)
let[@inline] pinned_of v =
  if v = inactive || v = delivered then inactive else if v < 0 then -v else v

(* Post a neutralization into [tid]'s announcement cell if it currently
   holds an active epoch.  Returns whether this call performed the post
   (used by the reclaimer and, deterministically, by tests). *)
let neutralize t ~tid =
  let cell = Memory.Padded.cell t.announces tid in
  let v = Atomic.get cell in
  if v > 0 && v <> inactive && Atomic.compare_and_set cell v (-v) then begin
    Atomic.incr t.posted;
    true
  end
  else false

(* One pass over the announcement cells: post to laggards, deliver to
   posted-and-parked laggards, and compute the minimum still-pinned epoch
   (after the post/deliver attempts, so a delivery made in this pass
   already widens this pass's sweep). *)
let min_pinned th =
  let t = th.global in
  let era = Atomic.get t.epoch in
  let lag = t.config.neutralize_after in
  let n = Memory.Padded.length t.announces in
  let rec scan i safe =
    if i = n then safe
    else begin
      let cell = Memory.Padded.cell t.announces i in
      let v = Atomic.get cell in
      (* Post — but never to ourselves: the reclaiming operation holds
         the youngest possible announcement anyway, and restarting it
         from inside its own reclamation pass would abort the sweep. *)
      let v =
        if i <> th.id && v > 0 && v <> inactive && era - v > lag then
          if Atomic.compare_and_set cell v (-v) then begin
            Atomic.incr t.posted;
            -v
          end
          else Atomic.get cell
        else v
      in
      (* Deliver: when the laggard is parked at a checkpoint and not
         masked (see the protocol comment), or when it has crashed — a
         poisoned domain publishes its crash from its own raise site and
         never executes another protected load, so its mask and park
         point are irrelevant.  A failed CAS means the laggard
         acknowledged concurrently — re-read and trust the fresh
         value. *)
      let v =
        if v < 0 && v <> delivered then
          if Probe.is_crashed i then
            if Atomic.compare_and_set cell v delivered then delivered
            else Atomic.get cell
          else
            match Probe.parked_at i with
            | Some (Probe.Start_op | Probe.Read)
              when Memory.Padded.get t.masks i = 0 ->
                if Atomic.compare_and_set cell v delivered then delivered
                else Atomic.get cell
            | _ -> v
        else v
      in
      scan (i + 1) (min safe (pinned_of v))
    end
  in
  scan 0 inactive

let reclaim_pass th =
  Probe.hit th.id Probe.Reclaim;
  let safe_before = min_pinned th in
  Limbo_local.sweep th.limbo ~protected_:(fun r ->
      Memory.Hdr.retire_era r.Smr_intf.hdr >= safe_before)

(* IBR-style unconditional advance: no stalled thread can veto it, which
   is the whole point — the laggard's pin is resolved by neutralization,
   not by freezing the epoch. *)
let retire th (r : Smr_intf.reclaimable) =
  let t = th.global in
  Probe.hit th.id Probe.Retire;
  Memory.Hdr.mark_retired r.hdr;
  Memory.Hdr.set_retire_era r.hdr (Atomic.get t.epoch);
  Limbo_local.push th.limbo r;
  if Limbo_local.retires th.limbo mod t.config.epoch_freq = 0 then
    Atomic.incr t.epoch;
  if Limbo_local.length th.limbo >= Limbo_local.threshold th.limbo then
    reclaim_pass th

let flush th = reclaim_pass th
let unreclaimed t = Memory.Tcounter.total t.in_limbo

let stats t =
  [
    ("epoch", Atomic.get t.epoch);
    ("in_limbo", unreclaimed t);
    ("active_handles", Seats.total t.seats);
    ("neutralize_posted", Atomic.get t.posted);
    ("neutralize_restarts", Atomic.get t.restarts);
  ]
  @ Tuner.stats_of_array t.tuners

let set_pressure t on = Tuner.set_pressure_array t.tuners on

let deactivate th =
  if not th.deactivated then begin
    th.deactivated <- true;
    (* Withdrawing the announcement both un-pins and acknowledges any
       outstanding post: a subsequent post/delivery CAS expects the old
       value and fails harmlessly. *)
    Atomic.set th.my_ann inactive;
    Atomic.set th.my_mask 0;
    Seats.release th.global.seats ~tid:th.id
  end

let adopt ~victim ~into =
  if not victim.deactivated then
    invalid_arg "DBR.adopt: victim not deactivated";
  Limbo_local.adopt ~victim:victim.limbo ~into:into.limbo

let neutralize_posted t = Atomic.get t.posted
let neutralize_restarts t = Atomic.get t.restarts
