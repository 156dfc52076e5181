(* Harris-Michael lock-free linked list (Michael [20]).

   The baseline the paper compares against: logical deletion as in Harris'
   list, but a marked node is physically unlinked *immediately* upon first
   encounter — including during Search — and the operation restarts from the
   head if the unlink CAS fails.  This is what makes the algorithm
   HP-compatible out of the box: the successor of a marked node is never
   traversed.  The price is more CAS operations, mandatory restarts under
   contention (Table 2) and no read-only searches.

   Hazard slots: three, rotating between next, curr and prev exactly as
   in [Harris_list] — a hop renames the slots instead of copying
   protections between them, so it publishes exactly once.

   Like [Harris_list], the operation fast paths are allocation-free and
   store nothing per hop: staged protected loads, canonical link records,
   prebuilt retire records, a traversal cursor threaded through arguments
   and a find's result written once into the handle.  Protected loads go
   through the branded bracket ([S.with_op*] + [S.protect]); see
   [Harris_list] for the discipline. *)

module N = List_node
module G = Smr.Smr_intf.Guard

let slots_needed = 3

module Make (S : Smr.Smr_intf.S) = struct
  exception Restart

  type t = {
    head : N.link Atomic.t;
    tail : N.t;
    smr : S.t;
    pool : N.Pool.t;
    mk : unit -> N.t;
    restarts : Memory.Tcounter.t;
  }

  type handle = {
    t : t;
    s : S.th;
    tid : int;
    rdr : N.link S.reader;
    mutable prev : N.link Atomic.t;
    mutable expected : N.link;
    mutable pos_curr : N.t;
    mutable pos_next : N.link;
  }

  let create ~smr ~threads () =
    let tail = N.fresh ~key:max_int ~next:N.null_link in
    let pool = N.Pool.create ~threads () in
    {
      head = Atomic.make tail.N.in_link;
      tail;
      smr;
      pool;
      mk = N.maker pool;
      restarts = Memory.Tcounter.create ~threads;
    }

  let handle t ~tid =
    let s = S.register t.smr ~tid in
    {
      t;
      s;
      tid;
      rdr = S.reader s N.desc;
      prev = t.head;
      expected = N.null_link;
      pos_curr = t.tail;
      pos_next = N.null_link;
    }

  (* [node_of] and [protect_link] run on every hop, so they inline into
     it. *)
  let[@inline] node_of (l : N.link) =
    match l.ln with Some n -> n | None -> assert false (* tail is a barrier *)

  (* Protected load through the branded bracket: the guard is dereferenced
     immediately under [tok], which the type system ties to the enclosing
     [with_op*] bracket. *)
  let[@inline] protect_link h tok ~slot field =
    G.deref (S.protect h.rdr tok ~slot field) tok

  (* The find's result, stored once for the callers' CASes. *)
  let found h prev expected curr next =
    h.prev <- prev;
    h.expected <- expected;
    h.pos_curr <- curr;
    h.pos_next <- next

  (* The traversal cursor travels as arguments, as in [Harris_list]:
     [prev] is the last safe link cell and [expected] the physical record
     read from it; the handle is written once, when the find returns. *)
  let rec do_find h tok key =
    try find_attempt h tok key
    with Restart ->
      Memory.Tcounter.incr h.t.restarts ~tid:h.tid;
      do_find h tok key

  and find_attempt h tok key =
    let prev = h.t.head in
    let first = protect_link h tok ~slot:1 prev in
    step h tok key ~sn:0 ~sc:1 ~sp:2 prev first (node_of first)

  (* [~sn ~sc ~sp]: the slots holding next, curr and prev.  A safe hop is
     (sn, sc, sp) -> (sp, sn, sc): the new next goes into the old prev's
     slot.  An eager unlink retires curr, whose slot then takes the new
     next: sn and sc swap and prev stays put. *)
  and step h tok key ~sn ~sc ~sp prev expected (curr : N.t) =
    let cf = N.next_field curr in
    let next = protect_link h tok ~slot:sn cf in
    if next.N.marked then begin
      (* Eager unlink of the single marked node; restart on failure. *)
      let desired = N.unmarked_copy next in
      if not (Atomic.compare_and_set prev expected desired) then
        raise Restart;
      S.retire h.s curr.N.rc;
      step h tok key ~sn:sc ~sc:sn ~sp prev desired (node_of next)
    end
    else if N.key curr >= key then found h prev expected curr next
    else step h tok key ~sn:sp ~sc:sn ~sp:sc cf next (node_of next)

  let check_key key =
    if key >= max_int then
      invalid_arg "Harris_michael_list: key must be < max_int"

  (* Operation bodies are top-level [opN] constants (see [Harris_list]). *)
  let search_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          do_find h tok key;
          N.key h.pos_curr = key);
    }

  let search h key =
    check_key key;
    S.with_op2 h.s search_body h key

  (* Retry loops live at top level (closures capturing [h]/[key]/[node]
     would cons once per operation). *)
  let rec insert_loop h tok key node =
    do_find h tok key;
    if N.key h.pos_curr = key then begin
      N.dealloc h.t.pool ~tid:h.tid node;
      false
    end
    else begin
      Atomic.set node.N.next h.pos_curr.N.in_link;
      if Atomic.compare_and_set h.prev h.expected node.N.in_link then true
      else insert_loop h tok key node
    end

  let insert_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          let node =
            N.alloc h.t.pool ~tid:h.tid ~mk:h.t.mk ~key ~next:N.null_link
          in
          S.on_alloc h.s node.N.hdr;
          (* On a neutralization the node is still private (checkpoints
             fire only before the publish CAS): release it before the
             bracket restarts the body, which allocates afresh. *)
          match insert_loop h tok key node with
          | r -> r
          | exception Smr.Smr_intf.Neutralized ->
              N.dealloc h.t.pool ~tid:h.tid node;
              raise Smr.Smr_intf.Neutralized);
    }

  let insert h key =
    check_key key;
    S.with_op2 h.s insert_body h key

  let rec delete_loop h tok key =
    do_find h tok key;
    let curr = h.pos_curr in
    if N.key curr <> key then false
    else begin
      let next = h.pos_next in
      if
        next.N.marked
        || not
             (Atomic.compare_and_set (N.next_field curr) next
                (N.marked_copy next))
      then delete_loop h tok key
      else begin
        if Atomic.compare_and_set h.prev h.expected next then
          S.retire h.s curr.N.rc
        else begin
          (* Delegate the unlink to a fresh traversal, as in [20].  The
             delete linearized at the mark CAS above, so the delegate's
             protected loads run under [mask]: a neutralization must not
             restart an operation that already took effect, and the
             cleanup itself is optional (any later traversal unlinks the
             node). *)
          S.mask h.s;
          do_find h tok key;
          S.unmask h.s
        end;
        true
      end
    end

  let delete_body =
    { Smr.Smr_intf.op2 = (fun tok h key -> delete_loop h tok key) }

  let delete h key =
    check_key key;
    S.with_op2 h.s delete_body h key

  let quiesce h = S.flush h.s

  (* Crash recovery: deactivate the dead handle, adopt its limbo into a
     replacement registered on the same tid, sweep once. *)
  let recover (h : handle) =
    S.deactivate h.s;
    let fresh = handle h.t ~tid:h.tid in
    S.adopt ~victim:h.s ~into:fresh.s;
    S.flush fresh.s;
    fresh

  let restarts t = Memory.Tcounter.total t.restarts
  let unreclaimed t = S.unreclaimed t.smr

  let pool_stats t =
    [
      ("fresh", N.Pool.allocated_fresh t.pool);
      ("recycled", N.Pool.recycled t.pool);
      ("freed", N.Pool.freed t.pool);
    ]

  (* Quiescent-only observers: unprotected loads are safe with no
     operation in flight. *)
  let to_list t =
    let rec go acc (l : N.link) =
      match l.ln with
      | None -> List.rev acc
      | Some n ->
          if n.key = max_int then List.rev acc
          else
            let next = (* raw-load: quiescent *) Atomic.get n.next in
            let acc = if next.marked then acc else n.key :: acc in
            go acc next
    in
    go [] ((* raw-load: quiescent *) Atomic.get t.head)

  let size t = List.length (to_list t)

  let check_invariants t =
    let rec go last (l : N.link) =
      match l.ln with
      | None -> ()
      | Some n ->
          if n.key <= last then
            failwith
              (Printf.sprintf
                 "Harris_michael_list: key order violated (%d after %d)" n.key
                 last);
          if n.key <> max_int then
            go n.key ((* raw-load: quiescent *) Atomic.get n.next)
    in
    go min_int ((* raw-load: quiescent *) Atomic.get t.head)
end
