(* Named injection points inside the SMR schemes — the hook layer the
   chaos harness (Harness.Chaos) drives.

   Every scheme calls [hit tid point] at four boundaries of its lifecycle:
   right after the reservation of [start_op] is published, at the entry of
   every protected load, after the caller's unlink but before the node is
   handed to [retire], and at the entry of a reclamation pass (Hyaline's
   batch dispatch).  With no handler installed the call is one ref load and
   a never-taken branch — nothing is allocated and no closure is invoked,
   which is what keeps the operation fast paths at 0.00 minor words/op
   (asserted by test_smr's op-allocs suites).

   The handler itself runs on the domain that crossed the point, so it may
   park that domain (a stall) or raise (a simulated crash that skips
   [end_op]).  Installation is process-global and not itself thread-safe:
   install/uninstall from a coordinating domain while no workers run. *)

type point = Start_op | Read | Retire | Reclaim

let all_points = [ Start_op; Read; Retire; Reclaim ]

let point_name = function
  | Start_op -> "start-op"
  | Read -> "read"
  | Retire -> "retire"
  | Reclaim -> "reclaim"

let point_index = function Start_op -> 0 | Read -> 1 | Retire -> 2 | Reclaim -> 3
let n_points = 4

let point_of_string name =
  Lookup.find ~name_of:point_name all_points name

let point_of_string_exn name =
  Lookup.to_exn ~what:"injection point" (point_of_string name)

type handler = int -> point -> unit

let nop : handler = fun _ _ -> ()

(* Split flag + handler: the disabled fast path reads one bool ref and
   branches; the handler ref is only dereferenced when chaos is active. *)
let enabled = ref false
let handler = ref nop

let[@inline] hit tid point = if !enabled then !handler tid point

let install h =
  handler := h;
  enabled := true

let uninstall () =
  enabled := false;
  handler := nop

let active () = !enabled

(* {2 Parked-domain registry}

   Where each domain the chaos engine put to sleep is parked, keyed by
   tid.  The neutralizing scheme (DBR) reads it from reclamation passes: a
   neutralization may be marked delivered only when its target is parked
   at a point whose very next instruction on waking is the scheme's
   checkpoint ([Start_op]/[Read]).  Written by the chaos engine around its
   park/unpark transitions (never by the schemes), independent of whether
   a handler is currently installed.  Fixed-size: tids are dense worker
   indices everywhere in the harness. *)

let max_tids = 256
let parked_points = Array.init max_tids (fun _ -> Atomic.make (-1))

let point_of_index = function
  | 0 -> Start_op
  | 1 -> Read
  | 2 -> Retire
  | _ -> Reclaim

let note_parked tid point =
  if tid >= 0 && tid < max_tids then
    Atomic.set parked_points.(tid) (point_index point)

let note_unparked tid =
  if tid >= 0 && tid < max_tids then Atomic.set parked_points.(tid) (-1)

let parked_at tid =
  if tid < 0 || tid >= max_tids then None
  else
    match Atomic.get parked_points.(tid) with
    | -1 -> None
    | i -> Some (point_of_index i)

(* Crashed (poisoned) domains: a crashed tid never executes scheme code
   again — every later probe crossing re-raises on it and its handle is
   replaced on recovery — so a posted neutralization can be marked
   delivered immediately instead of waiting for a supervisor to
   deactivate the orphan.  The chaos engine sets this when it poisons a
   tid and MUST clear it before a replacement domain for the same tid
   starts running (the respawn path), or a live reader could be unpinned
   mid-operation. *)
let crashed_tids = Array.init max_tids (fun _ -> Atomic.make false)

let note_crashed tid =
  if tid >= 0 && tid < max_tids then Atomic.set crashed_tids.(tid) true

let clear_crashed tid =
  if tid >= 0 && tid < max_tids then Atomic.set crashed_tids.(tid) false

let is_crashed tid =
  tid >= 0 && tid < max_tids && Atomic.get crashed_tids.(tid)
