(* Shared per-thread limbo bookkeeping for the deferred-reclamation
   schemes (EBR, HP/HPopt, HE, IBR, Hyaline-1S's pending batch).

   Every scheme used to carry its own copy of the same three fields
   (retired list, its length, a retire counter) and the same
   partition-and-free pass.  This module owns that state once, backed by
   the allocation-free [Memory.Limbo] buffer; each scheme keeps only its
   policy: when to advance its era, when to trigger a pass, and its
   "is this node still protected?" predicate.

   Since the adaptive-SMR work, every handle also carries a {!Tuner}: the
   scheme asks {!threshold} for the effective pass/batch trigger instead
   of reading its static config field, and {!sweep}/{!take} report each
   outcome to the controller.  With [adaptive = `Off] the threshold never
   moves, so static configurations keep the old behaviour exactly. *)

type t = {
  buf : Smr_intf.reclaimable Memory.Limbo.t;
  in_limbo : Memory.Tcounter.t; (* shared gauge, this thread's cell *)
  tid : int;
  mutable retires : int; (* lifetime retire count for era-freq policies *)
  drop : Smr_intf.reclaimable -> unit; (* built once: free + gauge decr *)
  tuner : Tuner.t; (* effective-threshold controller + sweep counters *)
}

(* Fills unused buffer slots; never dereferenced, never dropped. *)
let dummy : Smr_intf.reclaimable =
  { hdr = Memory.Hdr.create (); free = (fun _ -> ()) }

let create ~config ~start ~in_limbo ~tid =
  let tuner = Tuner.create ~config ~start in
  {
    (* Capacity matches the *initial* threshold, as before the tuner;
       when the controller widens past it, [Memory.Limbo.push] grows the
       buffer by doubling — a cold, amortised path that only runs in the
       already-degraded regimes the widening is reacting to. *)
    buf = Memory.Limbo.create ~capacity:(Tuner.threshold tuner) ~dummy ();
    in_limbo;
    tid;
    retires = 0;
    drop =
      (fun (r : Smr_intf.reclaimable) ->
        r.free tid;
        Memory.Tcounter.decr in_limbo ~tid);
    tuner;
  }

let length t = Memory.Limbo.length t.buf
let retires t = t.retires
let threshold t = Tuner.threshold t.tuner
let tuner t = t.tuner

(* Retire fast path: an array store plus two counter bumps — no list
   cells, no allocation below buffer capacity.  The caller has already
   marked the node retired and stamped its era. *)
let push t (r : Smr_intf.reclaimable) =
  Memory.Limbo.push t.buf r;
  Memory.Tcounter.incr t.in_limbo ~tid:t.tid;
  t.retires <- t.retires + 1

(* Reclamation pass: single in-place compaction; frees (and decrements
   the gauge for) every node the predicate no longer protects.  Reports
   {scanned; reclaimed; gauge} to the tuner — the feedback edge of the
   adaptive threshold loop. *)
let sweep t ~protected_ =
  let scanned = Memory.Limbo.length t.buf in
  Memory.Limbo.sweep t.buf ~keep:protected_ ~drop:t.drop;
  Tuner.observe t.tuner ~scanned
    ~reclaimed:(scanned - Memory.Limbo.length t.buf)
    ~gauge:(Memory.Tcounter.total t.in_limbo)

(* Detach everything as a batch (Hyaline dispatch).  The in-limbo gauge is
   NOT touched: the nodes stay unreclaimed until whoever drops the last
   batch reference frees them.  Dispatch has no hit-rate, so the tuner
   gets the gauge-only observation. *)
let take t =
  let nodes = Memory.Limbo.take_array t.buf in
  Tuner.observe_dispatch t.tuner ~gauge:(Memory.Tcounter.total t.in_limbo);
  nodes

(* Crash recovery: move a dead thread's whole limbo (and its share of the
   shared gauge) into a survivor's buffer.  Cold path — [take_array]
   allocates one array.  Both sides must belong to the same scheme
   instance (same gauge); the victim's owner must be dead and [into]'s
   owner must not be pushing/sweeping concurrently. *)
let adopt ~victim ~into =
  let n = Memory.Limbo.length victim.buf in
  if n > 0 then begin
    let nodes = Memory.Limbo.take_array victim.buf in
    Array.iter (fun r -> Memory.Limbo.push into.buf r) nodes;
    Memory.Tcounter.add victim.in_limbo ~tid:victim.tid (-n);
    Memory.Tcounter.add into.in_limbo ~tid:into.tid n
  end
