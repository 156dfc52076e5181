(* Hazard pointers (Michael), parameterised by the limbo-scan strategy.

   [snapshot = false] is the original scheme evaluated as "HP" in the paper:
   during a reclamation pass every retired node re-reads the shared hazard
   slots.  [snapshot = true] is "HPopt": a local snapshot of all slots is
   captured once per pass and membership is tested against the snapshot
   [26].  The paper reports a substantial difference in some tests.

   Hazard slots are [Padded] per thread row.  An empty slot holds the
   [no_hazard] sentinel header rather than [None]: publishing a hazard is
   then a plain unboxed store (the legacy [option] representation allocated
   a [Some] per publish in the staged path).  The sentinel is a private
   header that never equals a real node's header, so membership tests need
   no case analysis.  The snapshot is captured into a per-thread scratch
   array reused across passes. *)

(* Shared across instantiations; physical inequality with every live node
   header is all that matters. *)
let no_hazard : Memory.Hdr.t = Memory.Hdr.create ()

module Make (P : sig
  val name : string
  val snapshot : bool
end) =
struct
  let name = P.name

  let capabilities =
    {
      Smr_intf.robust = true;
      recoverable = true;
      neutralizing = false;
      adaptive = true;
    }

  type t = {
    slots : Memory.Hdr.t Memory.Padded.t array; (* [tid].(slot) *)
    in_limbo : Memory.Tcounter.t;
    seats : Seats.t;
    config : Smr_intf.config;
    tuners : Tuner.t option array; (* per-tid controllers, for [stats] *)
  }

  type th = {
    global : t;
    id : int;
    my_slots : Memory.Hdr.t Atomic.t array;
    limbo : Limbo_local.t;
    scratch : Memory.Hdr.t array; (* snapshot, one pass at a time *)
    mutable deactivated : bool;
  }

  let create ?config ~threads ~slots () =
    let config =
      match config with Some c -> c | None -> Smr_intf.default_config ~threads
    in
    {
      slots =
        Array.init threads (fun _ ->
            Memory.Padded.create slots (fun _ -> no_hazard));
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
      scratch = Array.make (Array.length t.slots * slots) no_hazard;
      deactivated = false;
    }

  let tid th = th.id
  let start_op th = Probe.hit th.id Probe.Start_op

  let end_op th = Array.iter (fun c -> Atomic.set c no_hazard) th.my_slots

  (* The paper's protect (Figure 1): publish the reservation, then verify
     the source pointer has not changed; loop otherwise.  The load and
     header access resolve through the prebuilt descriptor — publish is
     one unboxed store per hop.  The loop is a top-level function over
     explicit arguments so a protected load allocates nothing (an inner
     [let rec] would cons a closure).

     A re-read that is physically the value just published for ([v' == v])
     validates at once: the descriptor is pure, so [hdr v'] is [h] and the
     header compare could only succeed.  That is the common hop, and it
     makes two descriptor calls instead of four.  A changed field (another
     record, maybe with the same target, e.g. a mark flip) still goes
     through the header compare. *)
  type 'v reader = { r_th : th; r_desc : 'v Smr_intf.desc }

  let reader th desc = { r_th = th; r_desc = desc }

  let rec read_field_loop cell (desc : _ Smr_intf.desc) field v =
    if desc.Smr_intf.is_null v then begin
      Atomic.set cell no_hazard;
      v
    end
    else begin
      let h = desc.Smr_intf.hdr v in
      Atomic.set cell h;
      let v' = Atomic.get field in
      if v' == v then v'
      else if (not (desc.Smr_intf.is_null v')) && desc.Smr_intf.hdr v' == h
      then v'
      else read_field_loop cell desc field v'
    end

  let[@inline] read_field r ~slot field =
    Probe.hit r.r_th.id Probe.Read;
    read_field_loop r.r_th.my_slots.(slot) r.r_desc field (Atomic.get field)

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

  (* The paper's [dup] (Figure 1): copy an existing reservation so the node
     stays protected across a traversal-role change. *)
  let dup th ~src ~dst =
    Atomic.set th.my_slots.(dst) (Atomic.get th.my_slots.(src))

  let clear_slot th ~slot = Atomic.set th.my_slots.(slot) no_hazard
  let on_alloc _ _ = ()

  (* Original HP: re-read every shared slot for every retired node.  The
     sentinel never equals a live header, so no emptiness test is needed. *)
  let protected_rescan t (h : Memory.Hdr.t) =
    let rows = Array.length t.slots in
    let rec scan_row i =
      i < rows
      &&
      let row = t.slots.(i) in
      let cols = Memory.Padded.length row in
      let rec scan_col j =
        j < cols && (Memory.Padded.get row j == h || scan_col (j + 1))
      in
      scan_col 0 || scan_row (i + 1)
    in
    scan_row 0

  let reclaim_pass th =
    Probe.hit th.id Probe.Reclaim;
    let t = th.global in
    if P.snapshot then begin
      (* HPopt: one capture of all slots per pass into the reused scratch. *)
      let rows = Array.length t.slots in
      let rec fill_row i k =
        if i = rows then k
        else begin
          let row = t.slots.(i) in
          let cols = Memory.Padded.length row in
          let rec fill_col j k =
            if j = cols then k
            else
              let h = Memory.Padded.get row j in
              if h == no_hazard then fill_col (j + 1) k
              else begin
                th.scratch.(k) <- h;
                fill_col (j + 1) (k + 1)
              end
          in
          fill_row (i + 1) (fill_col 0 k)
        end
      in
      let k = fill_row 0 0 in
      Limbo_local.sweep th.limbo ~protected_:(fun (r : Smr_intf.reclaimable) ->
          let rec mem i = i < k && (th.scratch.(i) == r.hdr || mem (i + 1)) in
          mem 0)
    end
    else
      Limbo_local.sweep th.limbo ~protected_:(fun (r : Smr_intf.reclaimable) ->
          protected_rescan t r.hdr)

  let retire th (r : Smr_intf.reclaimable) =
    Probe.hit th.id Probe.Retire;
    Memory.Hdr.mark_retired r.hdr;
    Limbo_local.push th.limbo r;
    if Limbo_local.length th.limbo >= Limbo_local.threshold th.limbo then
      reclaim_pass th

  let flush th = reclaim_pass th
  let unreclaimed t = Memory.Tcounter.total t.in_limbo

  let stats t =
    [
      ("in_limbo", unreclaimed t);
      ("active_handles", Seats.total t.seats);
    ]
    @ Tuner.stats_of_array t.tuners

  let set_pressure t on = Tuner.set_pressure_array t.tuners on

  let deactivate th =
    if not th.deactivated then begin
      th.deactivated <- true;
      (* Clearing the hazard slots is [end_op]: the dead operation can no
         longer dereference, so its published pointers stop protecting. *)
      Array.iter (fun c -> Atomic.set c no_hazard) th.my_slots;
      Seats.release th.global.seats ~tid:th.id
    end

  let adopt ~victim ~into =
    if not victim.deactivated then
      invalid_arg (P.name ^ ".adopt: victim not deactivated");
    Limbo_local.adopt ~victim:victim.limbo ~into:into.limbo
end
