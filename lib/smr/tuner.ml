(* Per-handle feedback controller for the reclamation threshold.

   Every limbo sweep reports its outcome; the controller moves the
   effective threshold multiplicatively between the configured [min, max]
   bounds (the era period is not tuned: it stays [config.epoch_freq],
   the value the memory bounds are computed from):

   - low hit-rate (the sweep freed less than a quarter of what it
     scanned) means the backlog is pinned by someone's reservation and
     re-scanning it on every retire is pure overhead — *widen* the
     threshold (x2, clamped to max) so passes back off until the pin has
     a chance to clear;
   - unreclaimed-gauge growth since the previous sweep (with a healthy
     hit-rate) means reclamation is falling behind the retire rate —
     *tighten* (/2, clamped to min) so passes run more often;
   - otherwise hold.

   Checking hit-rate before gauge growth is deliberate: when a stalled
   reservation pins the buffer, the gauge grows too, but sweeping harder
   cannot free pinned nodes — widening is the only move that helps, and
   the [max] bound (not the controller) is what caps memory.

   The threshold lives in an [Atomic.t] so the stats path can read it from
   another domain; every other counter is owner-written and only read
   after the owning domain has quiesced (domain join orders the reads).
   [observe] allocates nothing: the retire fast path reads one atomic int
   and sweeps are already the cold path.

   With [adaptive = `Off] the controller still counts sweep efficiency
   (scanned/reclaimed/low-hit passes — the counters EXPERIMENTS.md's
   adaptive section reads) but never moves the threshold, so static
   configurations behave exactly as before. *)

type t = {
  threshold : int Atomic.t; (* current effective threshold *)
  lo : int; (* clamp bounds; lo = hi = start when not adaptive *)
  hi : int;
  adaptive : bool;
  pressed : bool Atomic.t; (* overload clamp: set by a service tier above *)
  presses : int Atomic.t; (* transitions into the pressed state *)
  mutable last_gauge : int;
  mutable sweeps : int;
  mutable low_hit : int; (* sweeps that freed < 1/4 of what they scanned *)
  mutable widens : int;
  mutable tightens : int;
  mutable scanned : int; (* lifetime nodes examined by sweeps *)
  mutable reclaimed : int; (* lifetime nodes freed by sweeps *)
}

let clamp ~lo ~hi v = min hi (max lo v)

let create ~(config : Smr_intf.config) ~start =
  let lo, hi, adaptive =
    match config.Smr_intf.adaptive with
    | `Off -> (start, start, false)
    | `On b -> (b.Smr_intf.min_threshold, b.Smr_intf.max_threshold, true)
  in
  {
    threshold = Atomic.make (clamp ~lo ~hi start);
    lo;
    hi;
    adaptive;
    pressed = Atomic.make false;
    presses = Atomic.make 0;
    last_gauge = 0;
    sweeps = 0;
    low_hit = 0;
    widens = 0;
    tightens = 0;
    scanned = 0;
    reclaimed = 0;
  }

(* While pressed, the effective threshold sits at its most aggressive
   clamp: the minimum (sweep on every short buffer fill).  The stored
   controller state is left untouched, so releasing the pressure resumes
   the feedback loop where it was.  For static configs [lo = hi], so
   pressure is a no-op there by construction. *)
let threshold t = if Atomic.get t.pressed then t.lo else Atomic.get t.threshold

let set_pressure t on =
  if on && not (Atomic.get t.pressed) then Atomic.incr t.presses;
  Atomic.set t.pressed on

(* Fan a pressure change out to every registered handle's controller —
   the per-scheme [S.set_pressure] implementation. *)
let set_pressure_array ts on =
  Array.iter (function None -> () | Some t -> set_pressure t on) ts

let widen t =
  let cur = Atomic.get t.threshold in
  let next = min t.hi (cur * 2) in
  if next <> cur then begin
    Atomic.set t.threshold next;
    t.widens <- t.widens + 1
  end

let tighten t =
  let cur = Atomic.get t.threshold in
  let next = max t.lo (cur / 2) in
  if next <> cur then begin
    Atomic.set t.threshold next;
    t.tightens <- t.tightens + 1
  end

let observe t ~scanned ~reclaimed ~gauge =
  t.sweeps <- t.sweeps + 1;
  t.scanned <- t.scanned + scanned;
  t.reclaimed <- t.reclaimed + reclaimed;
  let low = scanned > 0 && reclaimed * 4 < scanned in
  if low then t.low_hit <- t.low_hit + 1;
  if t.adaptive then
    if low then widen t else if gauge > t.last_gauge then tighten t;
  t.last_gauge <- gauge

(* Hyaline's dispatch has no hit-rate signal (the whole batch is handed
   over and freed by whoever drops the last reference), so the batch size
   adapts on the gauge alone: growth means batches are being pinned by
   active readers — dispatch smaller ones sooner; otherwise grow them
   back to amortise the per-dispatch fan-out.  Multiplicative in both
   directions, so the size oscillates within one doubling of the
   equilibrium instead of converging — acceptable for a batch size. *)
let observe_dispatch t ~gauge =
  t.sweeps <- t.sweeps + 1;
  if t.adaptive then
    if gauge > t.last_gauge then tighten t else widen t;
  t.last_gauge <- gauge

(* Aggregate controller counters for [S.stats]: one row per scheme
   instance, summed over the per-tid controllers (the threshold column is
   the max — the widened value is the one that explains a memory spike).
   Empty when no handle was registered.  Only the threshold crosses
   domains while workers run; the mutable counters are read post-join. *)
let stats_of_array (ts : t option array) =
  let any = Array.exists Option.is_some ts in
  if not any then []
  else begin
    let thr = ref 0
    and sweeps = ref 0
    and low = ref 0
    and widens = ref 0
    and tightens = ref 0
    and scanned = ref 0
    and reclaimed = ref 0
    and presses = ref 0 in
    Array.iter
      (function
        | None -> ()
        | Some t ->
            thr := max !thr (threshold t);
            sweeps := !sweeps + t.sweeps;
            low := !low + t.low_hit;
            widens := !widens + t.widens;
            tightens := !tightens + t.tightens;
            scanned := !scanned + t.scanned;
            reclaimed := !reclaimed + t.reclaimed;
            presses := !presses + Atomic.get t.presses)
      ts;
    [
      ("tuned_threshold", !thr);
      ("sweep_passes", !sweeps);
      ("sweep_low_hit", !low);
      ("sweep_scanned", !scanned);
      ("sweep_reclaimed", !reclaimed);
      ("tuner_widens", !widens);
      ("tuner_tightens", !tightens);
      ("tuner_presses", !presses);
    ]
  end
