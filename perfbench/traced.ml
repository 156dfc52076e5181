(* A counting and timing SMR scheme: [Make (S)] implements
   [Smr.Smr_intf.S] by forwarding every call to [S] and recording it on
   the calling tid's {!Trace.recorder}.

   Structures and the store take their scheme as a first-class module, so
   passing [(module Make (S))] puts this wrapper exactly at the
   structure-to-scheme boundary without touching the library:

   - [with_op*]: one bracket span around [S.with_op*], one body span around
     each run of the structure's body inside it (a neutralization restart
     runs the body again).  Bracket minus body is the scheme's
     [start_op]/[end_op] cost.
   - [protect]: counted on every call, timed on every
     [Trace.protect_period]-th one (timing all ~130 per list op would
     swamp what it measures).
   - [retire]: counted and timed on every call, including any
     reclamation pass the call triggers.
   - [on_alloc]: counted — one per node the structure allocates.

   Return values and exceptions pass through unchanged; the transparency
   test holds the wrapper to that. *)

module Make (S : Smr.Smr_intf.S) : Smr.Smr_intf.S = struct
  open Smr.Smr_intf

  let name = S.name
  let capabilities = S.capabilities

  type t = S.t
  type th = { inner : S.th; r : Trace.recorder }

  let create = S.create
  let register t ~tid = { inner = S.register t ~tid; r = Trace.recorder tid }
  let tid th = S.tid th.inner
  let start_op th = S.start_op th.inner
  let end_op th = S.end_op th.inner

  type 'v reader = { rd : 'v S.reader; rr : Trace.recorder }

  let reader th desc = { rd = S.reader th.inner desc; rr = th.r }

  let protect rd tok ~slot field =
    let r = rd.rr in
    let n = Trace.get r Trace.c_protects in
    Trace.bump r Trace.c_protects 1;
    if n land (Trace.protect_period - 1) <> 0 then S.protect rd.rd tok ~slot field
    else begin
      let t0 = Clock.now () in
      let g = S.protect rd.rd tok ~slot field in
      let t1 = Clock.now () in
      Trace.bump r Trace.c_protect_samples 1;
      Trace.bump r Trace.c_protect_ns (t1 - t0);
      Trace.leaf r Trace.sp_protect t0 t1;
      g
    end

  (* Bracket and body spans.  An exception (a fault, or [Neutralized]
     leaving the body for the scheme's restart loop) still closes the
     span, then propagates untouched. *)
  let spanned r ~close run =
    let t0 = Clock.now () in
    let id = Trace.open_span r in
    match run () with
    | v ->
        close r id t0 (Clock.now ());
        v
    | exception e ->
        close r id t0 (Clock.now ());
        raise e

  let bracketed r run = spanned r ~close:Trace.bracket_end run
  let body r run = spanned r ~close:Trace.body_end run

  let with_op th (b : _ op0) =
    let r = th.r in
    bracketed r (fun () ->
        S.with_op th.inner { op0 = (fun tok -> body r (fun () -> b.op0 tok)) })

  let with_op1 th (b : _ op1) x =
    let r = th.r in
    bracketed r (fun () ->
        S.with_op1 th.inner
          { op1 = (fun tok x -> body r (fun () -> b.op1 tok x)) }
          x)

  let with_op2 th (b : _ op2) x y =
    let r = th.r in
    bracketed r (fun () ->
        S.with_op2 th.inner
          { op2 = (fun tok x y -> body r (fun () -> b.op2 tok x y)) }
          x y)

  let with_op3 th (b : _ op3) x y z =
    let r = th.r in
    bracketed r (fun () ->
        S.with_op3 th.inner
          { op3 = (fun tok x y z -> body r (fun () -> b.op3 tok x y z)) }
          x y z)

  let mask th = S.mask th.inner
  let unmask th = S.unmask th.inner
  let dup th ~src ~dst = S.dup th.inner ~src ~dst
  let clear_slot th ~slot = S.clear_slot th.inner ~slot

  let on_alloc th hdr =
    Trace.bump th.r Trace.c_allocs 1;
    S.on_alloc th.inner hdr

  let retire th rc =
    let r = th.r in
    let t0 = Clock.now () in
    S.retire th.inner rc;
    let t1 = Clock.now () in
    Trace.bump r Trace.c_retires 1;
    Trace.bump r Trace.c_retire_ns (t1 - t0);
    Trace.leaf r Trace.sp_retire t0 t1

  let flush th = S.flush th.inner
  let unreclaimed = S.unreclaimed
  let stats = S.stats
  let set_pressure = S.set_pressure
  let deactivate th = S.deactivate th.inner
  let adopt ~victim ~into = S.adopt ~victim:victim.inner ~into:into.inner
end

let wrap (module S : Smr.Smr_intf.S) : Smr.Registry.scheme =
  (module Make (S) : Smr.Smr_intf.S)
