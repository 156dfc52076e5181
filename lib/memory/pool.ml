(* Recycling node pools: the simulated [malloc]/[free].

   Each data-structure instance owns a pool.  [free] (invoked by the SMR
   scheme once a retired node is provably unreachable) poisons the node's
   header and pushes it onto the freeing thread's freelist; [alloc] pops a
   recycled node when available.  Recycling is what makes ABA and
   use-after-free *real* in this reproduction: without it, the GC would
   silently keep every "freed" node valid.

   Freelists are array-backed LIFO stacks grown in chunks: no cons cell
   per [free]/[alloc], so the simulated allocator stays off the OCaml
   allocator on the steady-state recycle path.  Slots above [len] may
   keep a stale reference to their last occupant; that node is alive
   anyway (it was just handed out or re-pushed), so nothing leaks. *)

module type NODE = sig
  type t

  val hdr : t -> Hdr.t
end

(* Initial chunk: 64 slots, grown by doubling. *)
let initial_capacity = 64

module Make (N : NODE) = struct
  type freelist = { mutable buf : N.t array; mutable len : int }

  type t = {
    freelists : freelist array; (* owner-thread only *)
    fresh : Tcounter.t;
    recycled : Tcounter.t;
    freed : Tcounter.t;
  }

  let create ~threads () =
    {
      freelists = Array.init threads (fun _ -> { buf = [||]; len = 0 });
      fresh = Tcounter.create ~threads;
      recycled = Tcounter.create ~threads;
      freed = Tcounter.create ~threads;
    }

  let alloc t ~tid make =
    let fl = t.freelists.(tid) in
    if fl.len > 0 then begin
      fl.len <- fl.len - 1;
      let node = fl.buf.(fl.len) in
      Hdr.mark_live_for_reuse (N.hdr node);
      Tcounter.incr t.recycled ~tid;
      node
    end
    else begin
      Tcounter.incr t.fresh ~tid;
      make ()
    end

  let fl_push fl node =
    let cap = Array.length fl.buf in
    if fl.len = cap then begin
      (* [node] seeds the fresh slots; they are overwritten before any pop
         can reach them. *)
      let nbuf =
        Array.make (if cap = 0 then initial_capacity else 2 * cap) node
      in
      Array.blit fl.buf 0 nbuf 0 fl.len;
      fl.buf <- nbuf
    end;
    fl.buf.(fl.len) <- node;
    fl.len <- fl.len + 1

  (* The simulated [free].  Poison first so that any stale holder that races
     with the recycling observes the fault rather than silently reading a
     re-initialised node. *)
  let free t ~tid node =
    Hdr.mark_reclaimed (N.hdr node);
    Tcounter.incr t.freed ~tid;
    fl_push t.freelists.(tid) node

  let allocated_fresh t = Tcounter.total t.fresh
  let recycled t = Tcounter.total t.recycled
  let freed t = Tcounter.total t.freed

  (* Nodes ever handed out minus nodes currently sitting reclaimed. *)
  let live_estimate t =
    Tcounter.total t.fresh + Tcounter.total t.recycled - Tcounter.total t.freed
end
