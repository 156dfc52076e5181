(* Harris' list with optimistic traversals and *naive* SMR integration —
   deliberately WITHOUT the SCOT validation.  This reproduces the paper's
   Figure 2 incompatibility: under HP/HE/IBR/Hyaline-1S, traversing past the
   first logically deleted node can step onto memory that was already
   reclaimed, which in this reproduction raises
   [Memory.Fault.Use_after_free] (the simulated SEGFAULT).

   Under EBR/NR the very same code is safe, which is exactly the paper's
   Table 1 row for Harris' list.  Do not use outside tests and demos.

   With the branded-guard API this bug no longer typechecks through the
   front door: a guard can only be dereferenced under the operation token
   that issued it.  This module keeps the bug alive on purpose by going
   through [Smr.Smr_intf.Unsafe.leak_guard] — the greppable escape hatch
   that mints a fresh unscoped token and strips the brand.  It is the only
   module allowed to do so (enforced by scripts/lint_raw_loads.sh). *)

module N = List_node
module G = Smr.Smr_intf.Guard

let hp_next = 0
let hp_curr = 1
let hp_prev = 2
let slots_needed = 3

module Make (S : Smr.Smr_intf.S) = struct
  exception Restart

  type t = {
    head : N.link Atomic.t;
    smr : S.t;
    pool : N.Pool.t;
    mk : unit -> N.t;
    restarts : Memory.Tcounter.t;
  }

  type handle = { t : t; s : S.th; tid : int; rdr : N.link S.reader }

  let create ?(recycle = true) ~smr ~threads () =
    let tail = N.fresh ~key:max_int ~next:N.null_link in
    let pool = N.Pool.create ~recycle ~threads () in
    {
      head = Atomic.make (N.link (Some tail));
      smr;
      pool;
      mk = N.maker pool;
      restarts = Memory.Tcounter.create ~threads;
    }

  let handle t ~tid =
    let s = S.register t.smr ~tid in
    { t; s; tid; rdr = S.reader s N.desc }

  (* The Figure-2 protect: publishes the reservation like the safe list,
     but the guard is immediately leaked out of any bracket scope — the
     protection evidence is forged, which is precisely the incompatibility
     the SCOT validation exists to fix. *)
  let protect_link h ~slot field =
    Smr.Smr_intf.Unsafe.leak_guard (S.protect h.rdr (G.mint ()) ~slot field)

  (* In the unsafe variant a dangling traversal can observe a recycled
     node that was re-initialised concurrently; in C this is a wild
     pointer.  Report every corruption manifestation as the simulated
     SEGFAULT. *)
  let node_of (l : N.link) =
    match l.ln with
    | Some n -> n
    | None -> Memory.Fault.fail "unsafe traversal reached a recycled link"

  (* A corrupted list can contain cycles through recycled nodes; bound the
     walk so the simulated crash surfaces instead of a hang. *)
  let max_steps = 10_000_000

  let reclaimable t (n : N.t) : Smr.Smr_intf.reclaimable =
    { hdr = n.N.hdr; free = (fun tid -> N.Pool.free t.pool ~tid n) }

  let rec retire_chain h (n : N.t) ~until =
    if n != until then begin
      let next = Atomic.get n.N.next in
      (match S.retire h.s (reclaimable h.t n) with
      | () -> ()
      | exception Invalid_argument _ ->
          (* Double retire: the chain was corrupted by a concurrent
             reclamation — the double-free of Figure 2. *)
          Memory.Fault.fail "double retire through unsafe traversal");
      retire_chain h (node_of next) ~until
    end

  type pos = {
    prev : N.link Atomic.t;
    expected : N.link;
    curr : N.t;
    next : N.link;
  }

  let rec do_find h key ~srch =
    try find_attempt h key ~srch
    with Restart ->
      Memory.Tcounter.incr h.t.restarts ~tid:h.tid;
      do_find h key ~srch

  (* Figure 3 verbatim: marked chains are traversed with no validation at
     all; the chain adjacent to the final position is cleaned with one CAS.
     The HP-style [protect] calls are present but insufficient (§2.4: "If we
     integrate HP without any changes, L37 may crash"). *)
  and find_attempt h key ~srch =
    let t = h.t and s = h.s in
    let prev = ref t.head in
    let expected = ref (protect_link h ~slot:hp_curr t.head) in
    let zone_start = ref None in
    let steps = ref 0 in
    let rec step (curr : N.t) =
      incr steps;
      if !steps > max_steps then
        Memory.Fault.fail "unsafe traversal entered a corrupted cycle";
      let next = protect_link h ~slot:hp_next (N.next_field curr) in
      if next.N.marked then begin
        if !zone_start = None then zone_start := Some curr;
        let curr' = node_of next in
        S.dup s ~src:hp_next ~dst:hp_curr;
        step curr'
      end
      else if N.key curr >= key then begin
        (match !zone_start with
        | Some z when not srch ->
            if not (Atomic.compare_and_set !prev !expected (N.link (Some curr)))
            then raise Restart;
            retire_chain h z ~until:curr
        | _ -> ());
        { prev = !prev; expected = !expected; curr; next }
      end
      else begin
        zone_start := None;
        prev := N.next_field curr;
        expected := next;
        S.dup s ~src:hp_curr ~dst:hp_prev;
        let curr' = node_of next in
        S.dup s ~src:hp_next ~dst:hp_curr;
        step curr'
      end
    in
    step (node_of !expected)

  let check_key key =
    if key >= max_int then
      invalid_arg "Harris_list_unsafe: key must be < max_int"

  (* The operations still enter the scheme bracket through [with_op2]: the
     deliberate unsafety lives in the *traversal* (leaked guards, no SCOT
     validation), not in the bracket discipline.  Under the neutralizing
     scheme a checkpoint may raise [Neutralized] mid-traversal, and only
     the bracket knows how to unwind and restart the operation — without
     it the exception would escape the worker, which is a harness bug,
     not the reclamation incompatibility this module exists to exhibit. *)
  let search_body =
    {
      Smr.Smr_intf.op2 =
        (fun _tok h key ->
          let pos = do_find h key ~srch:true in
          N.key pos.curr = key);
    }

  let search h key =
    check_key key;
    S.with_op2 h.s search_body h key

  let rec insert_loop h key node =
    let pos = do_find h key ~srch:false in
    if N.key pos.curr = key then begin
      N.dealloc h.t.pool ~tid:h.tid node;
      false
    end
    else begin
      Atomic.set node.N.next (N.link (Some pos.curr));
      if Atomic.compare_and_set pos.prev pos.expected (N.link (Some node))
      then true
      else insert_loop h key node
    end

  let insert_body =
    {
      Smr.Smr_intf.op2 =
        (fun _tok h key ->
          let node =
            N.alloc h.t.pool ~tid:h.tid ~mk:h.t.mk ~key ~next:N.null_link
          in
          S.on_alloc h.s node.N.hdr;
          (* A neutralization can only fire during [do_find], before the
             publish CAS, so the node is still private: release it before
             the bracket restarts the body (which allocates afresh). *)
          match insert_loop h key node with
          | r -> r
          | exception Smr.Smr_intf.Neutralized ->
              N.dealloc h.t.pool ~tid:h.tid node;
              raise Smr.Smr_intf.Neutralized);
    }

  let insert h key =
    check_key key;
    S.with_op2 h.s insert_body h key

  let rec delete_loop h key =
    let pos = do_find h key ~srch:false in
    if N.key pos.curr <> key then false
    else begin
      let next = pos.next in
      if
        next.N.marked
        || not
             (Atomic.compare_and_set (N.next_field pos.curr) next
                (N.marked_copy next))
      then delete_loop h key
      else begin
        if Atomic.compare_and_set pos.prev pos.expected next then
          S.retire h.s (reclaimable h.t pos.curr);
        true
      end
    end

  let delete_body =
    { Smr.Smr_intf.op2 = (fun _tok h key -> delete_loop h key) }

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

  let to_list t =
    let rec go acc (l : N.link) =
      match l.ln with
      | None -> List.rev acc
      | Some n ->
          if n.key = max_int then List.rev acc
          else
            let next = Atomic.get n.next in
            let acc = if next.marked then acc else n.key :: acc in
            go acc next
    in
    go [] (Atomic.get t.head)

  let size t = List.length (to_list t)

  (* Nothing to check: the Figure-2 variant may legitimately corrupt. *)
  let check_invariants (_ : t) = ()
end
