(* Shared node representation for the list-based sets (Harris, Harris-Michael,
   wait-free Harris, and the deliberately unsafe variant).

   The C original steals one pointer bit for the logical-deletion mark; here a
   link is a boxed record carrying the destination and the mark.  All link
   updates go through CAS on the [next] atomic using the *physically* read
   record as the expected value, which mirrors word-CAS on a tagged pointer:
   any concurrent update replaces the record, so physical comparison detects
   exactly the changes pointer comparison would.

   To keep the operation fast paths allocation-free, every node carries its
   two canonical incoming links ({Some self; unmarked} and {Some self;
   marked}) built once at node-construction time, plus a prebuilt
   [reclaimable] record whose [free] closure returns the node to its pool.
   Link construction on the hot paths then reuses these physical records
   instead of consing: the tagged words of the C original, materialised
   once. *)

type t = {
  hdr : Memory.Hdr.t;
  mutable key : int;
  next : link Atomic.t;
  in_link : link; (* canonical { ln = Some self; marked = false } *)
  in_link_marked : link; (* canonical { ln = Some self; marked = true } *)
  mutable rc : Smr.Smr_intf.reclaimable; (* prebuilt at pool-alloc time *)
}

and link = { ln : t option; marked : bool }

let link ?(marked = false) ln = { ln; marked }
let null_link = { ln = None; marked = false }
let marked_null = { ln = None; marked = true }

(* The marked copy used by logical deletion (Figure 3, L21) — resolved to
   the target's canonical marked link, so no allocation. *)
let marked_copy l =
  match l.ln with None -> marked_null | Some n -> n.in_link_marked

(* Unmarked view of a (possibly marked) link — the new value of the
   Harris-Michael eager unlink. *)
let unmarked_copy l = match l.ln with None -> null_link | Some n -> n.in_link

(* First-class descriptor for the staged protected loads ([S.reader]). *)
let desc : link Smr.Smr_intf.desc =
  {
    is_null = (fun l -> match l.ln with None -> true | Some _ -> false);
    hdr =
      (fun l ->
        match l.ln with Some n -> n.hdr | None -> assert false (* is_null *));
  }

let nop_free (_ : int) = ()

let fresh ~key ~next =
  let hdr = Memory.Hdr.create () in
  let rec n =
    {
      hdr;
      key;
      next = Atomic.make next;
      in_link = { ln = Some n; marked = false };
      in_link_marked = { ln = Some n; marked = true };
      rc = { Smr.Smr_intf.hdr; free = nop_free };
    }
  in
  n

(* Dereference helpers: every field access of a node models a pointer
   dereference in the C original and goes through the poison check.  Both
   run on every hop, so they inline into the traversals. *)
let[@inline] key n =
  Memory.Hdr.check n.hdr;
  n.key

let[@inline] next_field n =
  Memory.Hdr.check n.hdr;
  n.next

module Pool = Memory.Pool.Make (struct
  type nonrec t = t

  let hdr n = n.hdr
end)

(* The make-function handed to [Pool.alloc]: built once per pool so a
   freelist miss constructs the node together with its pool-bound [rc].
   Recycled nodes keep theirs — the closure references that exact node. *)
let maker pool () =
  let n = fresh ~key:0 ~next:null_link in
  n.rc <-
    { Smr.Smr_intf.hdr = n.hdr; free = (fun tid -> Pool.free pool ~tid n) };
  n

(* Simulated malloc: recycle when possible, re-initialising all fields before
   the node is published.  [mk] must be the pool's prebuilt [maker]. *)
let alloc pool ~tid ~mk ~key:k ~next =
  let n = Pool.alloc pool ~tid mk in
  n.key <- k;
  Atomic.set n.next next;
  n

(* Simulated [free] of a node that was never published (e.g. an insert that
   lost its race, Figure 3 L33).  No SMR involvement is needed since no other
   thread can hold it. *)
let dealloc pool ~tid n =
  Memory.Hdr.mark_retired n.hdr;
  Pool.free pool ~tid n
