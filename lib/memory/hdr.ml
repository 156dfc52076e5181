(* Object header carried by every managed node.

   This is the heart of the manual-memory simulation: the header records the
   lifecycle state (live -> retired -> reclaimed -> live again on reuse), the
   birth / retire eras used by the era-based SMR schemes (HE, IBR,
   Hyaline-1S), and a serial number bumped on every reuse so that tests can
   detect stale references across a recycle (the ABA scenario).

   Layout: two heap blocks, the record and one atomic word
   [st = serial lsl 2 lor state].  Packing the serial beside the state makes
   each transition one CAS (so a concurrent double retire or double free
   still loses the CAS and is caught), and the eras are plain mutable fields
   so an era scheme's birth check on every protected load reads the record
   it already holds instead of following a pointer to an [Atomic.t] of its
   own.

   Why the plain eras are sound under OCaml 5's memory model:
   - [set_birth] runs in the scheme's [on_alloc], before the structure's
     linking CAS publishes the node; [set_retire_era] runs in [retire],
     before the node enters limbo, and limbo is handed between threads
     only through atomics.
   - Every reader reaches the node through an atomic load that reads from
     that CAS (or from a later write in its coherence order), so the plain
     write happens-before the plain read and the reader sees the era.
   - A stale reader of a recycled node may race with the next [on_alloc]'s
     write.  OCaml never tears an int, so it reads either the old or the
     new era: the same set of values the [Atomic.t] version could return. *)

type state = Live | Retired | Reclaimed

let live = 0
and retired = 1
and reclaimed = 2

type t = { st : int Atomic.t; mutable birth : int; mutable retire_era : int }

let create () = { st = Atomic.make live; birth = 0; retire_era = 0 }

let state t =
  match Atomic.get t.st land 3 with
  | 0 -> Live
  | 1 -> Retired
  | _ -> Reclaimed

let state_to_string = function
  | Live -> "live"
  | Retired -> "retired"
  | Reclaimed -> "reclaimed"

let serial t = Atomic.get t.st lsr 2
let birth t = t.birth
let retire_era t = t.retire_era

let set_birth t era = t.birth <- era
let set_retire_era t era = t.retire_era <- era

(* One transition: [st] must be in state [from] and is CAS'd to state [to_]
   with the serial advanced by [bump].  A wrong state or a lost CAS (a
   concurrent transition of the same header) raises [msg]. *)
let[@inline] transition t ~from ~to_ ~bump msg =
  let s = Atomic.get t.st in
  if
    s land 3 <> from
    || not (Atomic.compare_and_set t.st s (s - from + to_ + (bump lsl 2)))
  then invalid_arg msg

let mark_retired t =
  transition t ~from:live ~to_:retired ~bump:0
    "Hdr.mark_retired: node is not live (double retire?)"

(* Reclaim = the simulated [free]: poison the header and bump the serial so
   stale holders are detectable. *)
let mark_reclaimed t =
  transition t ~from:retired ~to_:reclaimed ~bump:1
    "Hdr.mark_reclaimed: node is not retired (double free?)"

(* Reuse = the simulated [malloc] hitting the freelist. *)
let mark_live_for_reuse t =
  transition t ~from:reclaimed ~to_:live ~bump:0
    "Hdr.mark_live_for_reuse: node is not reclaimed"

let is_reclaimed t = Atomic.get t.st land 3 = reclaimed

(* Hot-path poison check: the simulated SEGFAULT. *)
let check t =
  if !Fault.checked && is_reclaimed t then
    Fault.fail
      (Printf.sprintf "dereferenced reclaimed node (serial %d)" (serial t))
