(* IBR: interval-based reclamation (2GE variant, Wen et al.).

   Each thread publishes a single reservation interval [lower, upper]
   covering the birth eras of everything it may hold.  A protected read
   checks the loaded node's birth era against [upper] and widens the
   reservation when needed; a retired node is reclaimable once its
   [birth, retire] lifetime overlaps no thread's interval.  No per-pointer
   slots, which is why IBR "simplifies the programming model" (§2.2.4).

   The reservation is stored as two unboxed [Padded] int cells (lower /
   upper), like the original's two-word per-thread record, so the
   once-per-operation publish and the per-read widen allocate nothing.
   Scanners tolerate word-by-word reads because of the store/load order
   below ([Atomic] operations are seq_cst):

   - [start_op] stores upper, then lower; [read] widens only upper (it
     grows monotonically within an operation); [end_op] deactivates lower
     first, then resets upper.
   - a scanning pass reads lower first and skips the thread when it is
     [inactive]; otherwise the upper it reads afterwards is at least the
     upper that accompanied that lower — every torn interval it can
     observe is a superset-or-equal of one the legacy boxed-pair code
     could have observed, so nothing protected is ever reclaimed.

   A reclamation pass snapshots all intervals once into per-thread scratch
   arrays (reused across passes) and sweeps the limbo buffer in place. *)

let name = "IBR"

let capabilities =
  {
    Smr_intf.robust = true;
    recoverable = true;
    neutralizing = false;
    adaptive = true;
  }

(* Sentinels for an idle thread: an "interval" that overlaps nothing. *)
let inactive = max_int (* lower when idle *)
let no_upper = min_int (* upper when idle *)

type t = {
  era : int Atomic.t;
  lowers : int Memory.Padded.t; (* reservation lower bounds *)
  uppers : int Memory.Padded.t; (* reservation upper bounds *)
  in_limbo : Memory.Tcounter.t;
  seats : Seats.t;
  config : Smr_intf.config;
  tuners : Tuner.t option array; (* per-tid controllers, for [stats] *)
}

type th = {
  global : t;
  id : int;
  my_lower : int Atomic.t;
  my_upper : int Atomic.t;
  limbo : Limbo_local.t;
  scratch_lo : int array; (* snapshot of active intervals, one pass at *)
  scratch_hi : int array; (* a time; length = threads *)
  mutable deactivated : bool;
}

let create ?config ~threads ~slots:_ () =
  let config =
    match config with Some c -> c | None -> Smr_intf.default_config ~threads
  in
  {
    era = Atomic.make 1;
    lowers = Memory.Padded.create threads (fun _ -> inactive);
    uppers = Memory.Padded.create threads (fun _ -> no_upper);
    in_limbo = Memory.Tcounter.create ~threads;
    seats = Seats.create ~threads;
    config;
    tuners = Array.make threads None;
  }

let register t ~tid =
  Seats.claim t.seats ~tid;
  let threads = Memory.Padded.length t.lowers in
  let limbo =
    Limbo_local.create ~config:t.config ~start:t.config.limbo_threshold
      ~in_limbo:t.in_limbo ~tid
  in
  t.tuners.(tid) <- Some (Limbo_local.tuner limbo);
  {
    global = t;
    id = tid;
    my_lower = Memory.Padded.cell t.lowers tid;
    my_upper = Memory.Padded.cell t.uppers tid;
    limbo;
    scratch_lo = Array.make threads 0;
    scratch_hi = Array.make threads 0;
    deactivated = false;
  }

let tid th = th.id

let start_op th =
  let e = Atomic.get th.global.era in
  (* Upper before lower: a scanner that sees the activated lower is
     guaranteed to read an upper from this operation, not the stale
     [no_upper]. *)
  Atomic.set th.my_upper e;
  Atomic.set th.my_lower e;
  Probe.hit th.id Probe.Start_op

let end_op th =
  (* Lower first: once a scanner can still read this operation's upper,
     it must also still see the interval as inactive-or-complete. *)
  Atomic.set th.my_lower inactive;
  Atomic.set th.my_upper no_upper

(* Activate the reservation from inside a read (load outside
   start_op/end_op): same order as [start_op]. *)
let activate th =
  let e = Atomic.get th.global.era in
  Atomic.set th.my_upper e;
  Atomic.set th.my_lower e

(* Birth-era validation: widen [upper] and re-load until the loaded node's
   birth fits the reservation, with the load and header access resolved
   through the prebuilt descriptor.  The loop is a top-level function over
   explicit arguments — an inner [let rec] would capture the environment
   and cons a closure on every protected load. *)
type 'v reader = { r_th : th; r_desc : 'v Smr_intf.desc }

let reader th desc = { r_th = th; r_desc = desc }

let rec read_field_loop th (desc : _ Smr_intf.desc) field =
  let v = Atomic.get field in
  if desc.Smr_intf.is_null v then v
  else
    let b = Memory.Hdr.birth (desc.Smr_intf.hdr v) in
    if Atomic.get th.my_lower = inactive then begin
      activate th;
      read_field_loop th desc field
    end
    else if b <= Atomic.get th.my_upper then v
    else begin
      Atomic.set th.my_upper (Atomic.get th.global.era);
      read_field_loop th desc field
    end

let[@inline] read_field r ~slot:_ field =
  Probe.hit r.r_th.id Probe.Read;
  read_field_loop r.r_th r.r_desc field

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
let on_alloc th hdr = Memory.Hdr.set_birth hdr (Atomic.get th.global.era)

let reclaim_pass th =
  Probe.hit th.id Probe.Reclaim;
  let t = th.global in
  let n = Memory.Padded.length t.lowers in
  (* One scan of the reservation cells per pass, into the reused
     scratch; [k] counts the active intervals.  Lower is read before
     upper (see the ordering argument in the header comment). *)
  let rec fill i k =
    if i = n then k
    else
      let lower = Memory.Padded.get t.lowers i in
      if lower = inactive then fill (i + 1) k
      else begin
        th.scratch_lo.(k) <- lower;
        th.scratch_hi.(k) <- Memory.Padded.get t.uppers i;
        fill (i + 1) (k + 1)
      end
  in
  let k = fill 0 0 in
  Limbo_local.sweep th.limbo ~protected_:(fun (r : Smr_intf.reclaimable) ->
      let birth = Memory.Hdr.birth r.hdr in
      let retire = Memory.Hdr.retire_era r.hdr in
      let rec overlaps i =
        i < k
        && ((birth <= th.scratch_hi.(i) && retire >= th.scratch_lo.(i))
           || overlaps (i + 1))
      in
      overlaps 0)

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
    (* Same store order as [end_op]: lower first, so a concurrent scanner
       never pairs the stale lower with the reset upper. *)
    Atomic.set th.my_lower inactive;
    Atomic.set th.my_upper no_upper;
    Seats.release th.global.seats ~tid:th.id
  end

let adopt ~victim ~into =
  if not victim.deactivated then
    invalid_arg "IBR.adopt: victim not deactivated";
  Limbo_local.adopt ~victim:victim.limbo ~into:into.limbo
