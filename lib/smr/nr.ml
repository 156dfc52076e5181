(* NR: no reclamation.  Retired nodes are leaked (counted, never freed).
   This is the paper's "upper bound" throughput baseline: zero reclamation
   work, unbounded memory. *)

let name = "NR"

(* NR publishes nothing, so a crashed handle pins nothing extra — but the
   leak also cannot be recovered: everything the victim retired is gone
   for good, same as everything the survivors retire.  Nothing to tune
   either: NR never sweeps. *)
let capabilities =
  {
    Smr_intf.robust = false;
    recoverable = false;
    neutralizing = false;
    adaptive = false;
  }

type t = {
  leaked : Memory.Tcounter.t;
  seats : Seats.t;
}

type th = { global : t; id : int; mutable deactivated : bool }

let create ?config:_ ~threads ~slots:_ () =
  { leaked = Memory.Tcounter.create ~threads; seats = Seats.create ~threads }

let register t ~tid =
  Seats.claim t.seats ~tid;
  { global = t; id = tid; deactivated = false }

let tid th = th.id
let start_op th = Probe.hit th.id Probe.Start_op
let end_op _ = ()

(* No protection: the staged read is a plain atomic load (plus the
   injection-point crossing, a never-taken branch when chaos is off). *)
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

let retire th (r : Smr_intf.reclaimable) =
  (* Mark retired so double-retire bugs still trip the header check, but
     never reclaim. *)
  Probe.hit th.id Probe.Retire;
  Memory.Hdr.mark_retired r.hdr;
  Memory.Tcounter.incr th.global.leaked ~tid:th.id

let flush _ = ()
let unreclaimed t = Memory.Tcounter.total t.leaked

let stats t =
  [
    ("leaked", Memory.Tcounter.total t.leaked);
    ("active_handles", Seats.total t.seats);
  ]

(* Nothing to clamp: NR never sweeps. *)
let set_pressure _ _ = ()

let deactivate th =
  if not th.deactivated then begin
    th.deactivated <- true;
    Seats.release th.global.seats ~tid:th.id
  end

(* A no-op by design: NR never reclaims, so adoption cannot bound memory
   (the victim's leaked nodes stay leaked).  Supervisors consult
   [capabilities.recoverable] and surface the leak themselves instead of
   the old process-global warning hook. *)
let adopt ~victim ~into:_ =
  if not victim.deactivated then
    invalid_arg "NR.adopt: victim not deactivated"
