(* Per-tid registration seats.

   Before crash recovery existed, a handle's per-domain cells were
   claimed at [register] and never given back: a crashed domain's tid
   could not be safely re-registered and its published cells leaked
   forever.  Each scheme instance now owns a seat table: [register]
   claims a seat, [deactivate] releases it, and the table makes the
   occupancy observable (tests, `stats`).

   One flag per tid: a tid's per-domain cells (reservation, hazard
   slots, Hyaline head) exist once, so a second live handle on them is a
   caller bug, refused instead of silently stacked.  Claims are a CAS —
   seats are claimed and released from supervisor threads, not just the
   owner. *)

type t = bool Atomic.t array

let create ~threads = Array.init threads (fun _ -> Atomic.make false)

let claim t ~tid =
  if not (Atomic.compare_and_set t.(tid) false true) then
    invalid_arg
      (Printf.sprintf "Smr.register: tid %d already holds a live handle" tid)

let release t ~tid = Atomic.set t.(tid) false

let total t =
  Array.fold_left (fun acc c -> if Atomic.get c then acc + 1 else acc) 0 t
