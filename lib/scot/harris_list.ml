(* Harris' lock-free linked list with Safe Concurrent Optimistic Traversals
   (SCOT) — the paper's Figures 3-5, unrolled variant, including the
   recovery optimisation of §3.2.1.  With the validation switched off
   ([`Off]) the same code is Harris' original list (Figure 3), which is
   not safe under the robust schemes (Figure 2).

   The list is an ordered integer set with one tail sentinel (key
   [max_int]); the pre-head sentinel is implicit via the [head] link cell,
   as in the paper.  Traversal is optimistic: logically deleted (marked)
   nodes are skipped without being unlinked, and a whole chain of
   consecutive marked nodes is removed with a single CAS.

   SCOT makes this safe under HP/HE/IBR/Hyaline-1S by (a) protecting the
   first unsafe node of the marked chain in an extra hazard slot (Hp3) and
   (b) validating at every step of the "dangerous zone" that the last safe
   node still points to that first unsafe node.  Validation compares the
   *physical* link record, so any concurrent CAS on the link is detected.

   Hazard slots (§3.2): three traversal slots hold next, curr and prev
   (the last safe node); slot 3 holds the first unsafe node.  Which of
   slots 0-2 plays which role is not fixed: the traversal threads the
   three indices as [~sn ~sc ~sp] and rotates them instead of copying
   protections between slots.  A safe-zone hop is (sn, sc, sp) ->
   (sp, sn, sc): the new next is protected into the slot that held the
   old prev, which has just left the traversal window; a dangerous-zone
   hop swaps sn and sc and keeps sp (the last safe node stays put).  So
   a hop publishes exactly once, and no protection ever moves: a slot is
   only overwritten once the node it protects is behind the window.  The
   transient-unprotected race that the paper's ascending [dup] order
   guards against (a retire scan reading the destination before the copy
   and the source after the overwrite) therefore cannot arise.  The one
   copy left — curr into slot 3 on entering the dangerous zone — goes
   from a lower index to a higher one, so it keeps that order anyway.

   The checked lists' fast paths are allocation-free: protected loads go
   through the scheme's staged reader (built once per handle), link values
   are the nodes' canonical prebuilt records, and retire hands over the
   node's prebuilt [rc].  The traversal cursor (last safe link cell, its expected
   record, current node and its next field) is threaded through the hop
   functions' arguments, so a hop stores nothing: a store into the
   long-lived handle would be a write-barrier call per hop.  Only a find's
   result is written to handle fields (rather than consed), once, when the
   find returns.

   Every protected load goes through the branded bracket ([S.with_op*] +
   [S.protect] + [Guard.deref]): the operation bodies are top-level [opN]
   records (so the bracket conses nothing) and the traversal loops thread
   the bracket token explicitly — a dereference outside the bracket does
   not typecheck. *)

module N = List_node
module G = Smr.Smr_intf.Guard

(* Slots 0-2 rotate between next/curr/prev (see above); slot 3 is fixed. *)
let hp_unsafe = 3
let slots_needed = 4

type validation = [ `Recover | `Restart | `Off ]


module Make (S : Smr.Smr_intf.S) = struct
  exception Restart

  type t = {
    head : N.link Atomic.t;
    tail : N.t;
    smr : S.t;
    pool : N.Pool.t;
    mk : unit -> N.t; (* pool-bound maker; prebuilds each node's [rc] *)
    restarts : Memory.Tcounter.t;
    validation : validation;
  }

  type handle = {
    t : t;
    s : S.th;
    tid : int;
    rdr : N.link S.reader;
    (* The last find's result, written once when the find returns:
       [prev] is the last safe link cell, [expected] the physical record
       read there, [pos_curr] the first unmarked node with key >= target,
       [pos_next] its successor link. *)
    mutable prev : N.link Atomic.t;
    mutable expected : N.link;
    mutable pos_curr : N.t;
    mutable pos_next : N.link;
  }

  let create ?(validation = `Recover) ?(recycle = true) ~smr ~threads () =
    let tail = N.fresh ~key:max_int ~next:N.null_link in
    let pool = N.Pool.create ~recycle ~threads () in
    {
      head = Atomic.make tail.N.in_link;
      tail;
      smr;
      pool;
      mk = N.maker pool;
      restarts = Memory.Tcounter.create ~threads;
      validation;
    }

  let handle_on t s =
    {
      t;
      s;
      tid = S.tid s;
      rdr = S.reader s N.desc;
      prev = t.head;
      expected = N.null_link;
      pos_curr = t.tail;
      pos_next = N.null_link;
    }

  let handle t ~tid = handle_on t (S.register t.smr ~tid)

  (* The tail is a barrier, so a checked traversal never reaches a null
     link.  An unchecked one can, through a recycled node: in C that is a
     wild pointer, here the simulated SEGFAULT. *)
  let node_of (l : N.link) =
    match l.ln with
    | Some n -> n
    | None -> Memory.Fault.fail "traversal reached a null link"

  (* Guarded load: protect the field's target and deref under the live
     token.  The traversal consumes link values immediately; the brand is
     what stops the *protection* from being assumed past [end_op]. *)
  let protect_link h tok ~slot field =
    G.deref (S.protect h.rdr tok ~slot field) tok

  (* Only the unchecked list can retire a node twice (it unlinked a chain
     another thread had already unlinked and reclaimed): that is Figure
     2's double free, reported as the simulated SEGFAULT. *)
  let retire h (n : N.t) =
    try S.retire h.s n.N.rc
    with Invalid_argument _ -> Memory.Fault.fail "double retire"

  (* Retire the unlinked chain [from, until) — the paper's Do_Retire.  The
     chain is private to us after the successful unlink CAS. *)
  let rec retire_chain h (n : N.t) ~until =
    if n != until then begin
      (* raw-load: the chain is unreachable and privately owned after the
         unlink CAS, so no protection is needed to walk it. *)
      let next = Atomic.get n.N.next in
      retire h n;
      retire_chain h (node_of next) ~until
    end

  let no_step () = ()

  (* The per-hop hook of the operations' finds: nothing for the checked
     lists.  The unchecked list can walk into a cycle of recycled nodes,
     so its finds count their hops and report a runaway walk as the
     simulated SEGFAULT instead of hanging. *)
  let hop_hook h =
    if h.t.validation != `Off then no_step
    else
      let hops = ref 0 in
      fun () ->
        incr hops;
        if !hops > 10_000_000 then
          Memory.Fault.fail "unchecked traversal entered a corrupted cycle"

  (* The find's result, stored once for the callers' CASes. *)
  let found h prev expected curr next =
    h.prev <- prev;
    h.expected <- expected;
    h.pos_curr <- curr;
    h.pos_next <- next

  (* Do_Find.  The traversal cursor travels as arguments: [prev] is the
     last safe link cell, [expected] the physical record read from it,
     [curr] the current node and [cf] its next field (resolved once, so
     each node's poison check runs once per visit).  The handle is
     written only when the find returns ([found]), where the callers'
     CASes read it.  The body is a top-level recursion over explicit
     arguments (including the bracket token and the three rotating slot
     indices [~sn ~sc ~sp], unboxed ints), so a steady-state attempt
     allocates nothing and a hop stores nothing. *)
  let rec do_find h tok key ~srch ~on_step =
    try find_attempt h tok key ~srch ~on_step
    with Restart ->
      Memory.Tcounter.incr h.t.restarts ~tid:h.tid;
      do_find h tok key ~srch ~on_step

  and find_attempt h tok key ~srch ~on_step =
    let prev = h.t.head in
    let first = protect_link h tok ~slot:1 prev in
    let curr = node_of first in
    let cf = N.next_field curr in
    step h tok key ~srch ~on_step ~sn:0 ~sc:1 ~sp:2 prev first curr cf
      (protect_link h tok ~slot:0 cf)

  (* Dangerous-zone validation: the last safe node must still hold the
     exact link record we read from it.  Returns [expected] when it does.
     Otherwise §3.2.1 recovery re-reads the link into the curr slot [sc]
     and returns the new record: if the last safe node is itself now
     deleted we must restart from the head; otherwise traversal continues
     at the link's new target, with the new record as [expected].  (A
     re-read equal to [expected] means the link holds it again, which is
     exactly what validation asks.)  With validation [`Off] it returns
     [expected] without looking: Figure 3's unchecked walk. *)
  and validate h tok ~sc prev expected =
    let v = h.t.validation in
    if v == `Off then expected
    (* raw-load: validation witness — the physical record is only compared,
       never dereferenced. *)
    else if Atomic.get prev == expected then expected
    else if v == `Restart then raise Restart
    else begin
      let l = protect_link h tok ~slot:sc prev in
      if l.N.marked then raise Restart;
      l
    end

  (* Phase 1 ([step] on an unmarked [next]): the safe zone.  Same hazard
     discipline as the Harris-Michael list: curr becomes prev and next
     becomes curr by renaming their slots, (sn, sc, sp) -> (sp, sn, sc),
     and the new next is protected into the old prev's slot.

     Phase 2: the dangerous zone.  [curr] is marked and [next] is its
     (marked) successor link whose target is protected in [sn] but not yet
     validated.  We validate the last safe link *before* dereferencing
     the protected target (Theorem 2's ordering), then advance by swapping
     [sn] and [sc]; [sp] keeps the last safe node throughout. *)
  and step h tok key ~srch ~on_step ~sn ~sc ~sp prev expected (curr : N.t) cf
      (next : N.link) =
    on_step ();
    if next.N.marked then begin
      (* [curr] is logically deleted: protect the first unsafe node and
         enter the dangerous zone. *)
      S.dup h.s ~src:sc ~dst:hp_unsafe;
      phase2 h tok key ~srch ~on_step ~sn ~sc ~sp prev expected ~zstart:curr
        next
    end
    else if N.key curr >= key then found h prev expected curr next
    else
      let curr' = node_of next in
      let cf' = N.next_field curr' in
      step h tok key ~srch ~on_step ~sn:sp ~sc:sn ~sp:sc cf next curr' cf'
        (protect_link h tok ~slot:sp cf')

  and phase2 h tok key ~srch ~on_step ~sn ~sc ~sp prev expected ~zstart
      (next : N.link) =
    on_step ();
    let l = validate h tok ~sc prev expected in
    if l != expected then begin
      let recovered = node_of l in
      let cf = N.next_field recovered in
      step h tok key ~srch ~on_step ~sn ~sc ~sp prev l recovered cf
        (protect_link h tok ~slot:sn cf)
    end
    else
      let curr' = node_of next in
      let cf' = N.next_field curr' in
      let next' = protect_link h tok ~slot:sc cf' in
      if next'.N.marked then
        phase2 h tok key ~srch ~on_step ~sn:sc ~sc:sn ~sp prev expected
          ~zstart next'
      else if srch then
        (* Search skips the chain without unlinking (read-only). *)
        step h tok key ~srch ~on_step ~sn:sc ~sc:sn ~sp prev expected curr'
          cf' next'
      else begin
        (* Unlink the whole chain [zstart, curr') with one CAS. *)
        let desired = curr'.N.in_link in
        if not (Atomic.compare_and_set prev expected desired) then
          raise Restart;
        retire_chain h zstart ~until:curr';
        step h tok key ~srch ~on_step ~sn:sc ~sc:sn ~sp prev desired curr' cf'
          next'
      end

  let find h tok key ~srch = do_find h tok key ~srch ~on_step:(hop_hook h)

  let check_key key =
    if key >= max_int then invalid_arg "Harris_list: key must be < max_int"

  (* Operation bodies are top-level [opN] constants: the handle/key/hook
     travel as explicit arguments, so entering the bracket conses
     nothing. *)
  let search_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          find h tok key ~srch:true;
          N.key h.pos_curr = key);
    }

  let search h key =
    check_key key;
    S.with_op2 h.s search_body h key

  (* Search with a per-step hook; the hook may raise to abandon the
     traversal (the hazard slots are released by [end_op]).  Used by the
     wait-free extension's Slow_Search (Figure 7).  The body catches and
     re-raises outside the bracket so [end_op] still runs — the hook's
     raise is a cooperative abandon, not a crash. *)
  let search_hooked_body =
    {
      Smr.Smr_intf.op3 =
        (fun tok h key on_step ->
          match do_find h tok key ~srch:true ~on_step with
          | () -> Ok (N.key h.pos_curr = key)
          | exception Smr.Smr_intf.Neutralized ->
              (* Not an abandon: must reach the bracket's catch from inside
                 the body so the operation restarts under a fresh bracket
                 (wrapping it in [Error] would re-raise it outside, where
                 nothing retries). *)
              raise Smr.Smr_intf.Neutralized
          | exception e -> Error e);
    }

  let search_hooked h key ~on_step =
    check_key key;
    match S.with_op3 h.s search_hooked_body h key on_step with
    | Ok r -> r
    | Error e -> raise e

  (* Bounded-restart search: [None] after more than [max_restarts] restarts
     — the fast path of the wait-free extension (§3.4). *)
  let rec bounded_attempt h tok key budget =
    match find_attempt h tok key ~srch:true ~on_step:no_step with
    | () -> Some (N.key h.pos_curr = key)
    | exception Restart ->
        Memory.Tcounter.incr h.t.restarts ~tid:h.tid;
        if budget = 0 then None else bounded_attempt h tok key (budget - 1)

  let search_bounded_body =
    { Smr.Smr_intf.op3 = (fun tok h key budget -> bounded_attempt h tok key budget) }

  let search_bounded h key ~max_restarts =
    check_key key;
    S.with_op3 h.s search_bounded_body h key max_restarts

  (* Retry loops live at top level (closures capturing [h]/[key]/[node]
     would cons once per operation). *)
  let rec insert_loop h tok key node =
    find h tok key ~srch:false;
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
          (* Allocate once and reuse across retries, as in Figure 3. *)
          let node =
            N.alloc h.t.pool ~tid:h.tid ~mk:h.t.mk ~key ~next:N.null_link
          in
          S.on_alloc h.s node.N.hdr;
          (* Checkpoints only fire during [do_find], strictly before the
             publish CAS, so on a neutralization the node is still private:
             release it back to the pool before the bracket restarts the
             body (which allocates afresh), or it would leak.  Once the CAS
             succeeds the body performs no further protected loads and
             returns immediately — no mask needed. *)
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
    find h tok key ~srch:false;
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
        (* Logically deleted; one unlink attempt (Figure 3, L22),
           otherwise a later traversal cleans the chain. *)
        if Atomic.compare_and_set h.prev h.expected next then retire h curr;
        true
      end
    end

  let delete_body =
    { Smr.Smr_intf.op2 = (fun tok h key -> delete_loop h tok key) }

  let delete h key =
    check_key key;
    S.with_op2 h.s delete_body h key

  (* Range membership scan ([range_mem]): every unmarked key in [lo, hi],
     ascending.  This is the guards' composition proof: the scan keeps the
     usual four slots protected (rotating like [step]) AND passes the
     successor's guard as a first-class value from hop to hop — several
     simultaneously live guards under one bracket token, none of which can
     outlive it.

     Semantics under concurrency: keys strictly increase along the
     physical list, so emission is monotone; a Restart re-traverses from
     the head with the already-emitted prefix as a watermark (emit only
     keys greater than the last emitted one), which keeps the result
     sorted and duplicate-free.  Keys present for the whole scan are
     included; keys inserted or deleted concurrently may or may not be. *)
  let rec scan h tok ~lo ~hi acc =
    match scan_attempt h tok ~lo ~hi acc with
    | r -> r
    | exception Restart ->
        Memory.Tcounter.incr h.t.restarts ~tid:h.tid;
        scan h tok ~lo ~hi acc

  and scan_attempt h tok ~lo ~hi acc =
    let prev = h.t.head in
    let first_g = S.protect h.rdr tok ~slot:1 prev in
    let first = G.deref first_g tok in
    scan_step h tok ~lo ~hi acc ~sn:0 ~sc:1 ~sp:2 prev first (node_of first)

  and scan_step h tok ~lo ~hi acc ~sn ~sc ~sp prev expected (curr : N.t) =
    let cf = N.next_field curr in
    let next_g = S.protect h.rdr tok ~slot:sn cf in
    scan_emit h tok ~lo ~hi acc ~sn ~sc ~sp prev expected curr cf next_g

  (* [next_g] is the guard for [curr]'s successor link, still branded: it
     is only dereferenced here, under the same token that issued it.  The
     slots and the cursor ([prev]/[expected]) move exactly as in
     [step]/[phase2]. *)
  and scan_emit h tok ~lo ~hi acc ~sn ~sc ~sp prev expected curr cf next_g =
    let next = G.deref next_g tok in
    if next.N.marked then begin
      (* [curr] is logically deleted — enter the dangerous zone exactly
         like [step], but read-only. *)
      S.dup h.s ~src:sc ~dst:hp_unsafe;
      scan_zone h tok ~lo ~hi acc ~sn ~sc ~sp prev expected next
    end
    else
      let k = N.key curr in
      if k = max_int || k > hi then List.rev acc
      else
        let acc =
          if k >= lo && (match acc with [] -> true | last :: _ -> k > last)
          then k :: acc
          else acc
        in
        scan_step h tok ~lo ~hi acc ~sn:sp ~sc:sn ~sp:sc cf next (node_of next)

  and scan_zone h tok ~lo ~hi acc ~sn ~sc ~sp prev expected (next : N.link) =
    let l = validate h tok ~sc prev expected in
    if l != expected then
      scan_step h tok ~lo ~hi acc ~sn ~sc ~sp prev l (node_of l)
    else
      let curr' = node_of next in
      let cf' = N.next_field curr' in
      let next_g' = S.protect h.rdr tok ~slot:sc cf' in
      let next' = G.deref next_g' tok in
      if next'.N.marked then
        scan_zone h tok ~lo ~hi acc ~sn:sc ~sc:sn ~sp prev expected next'
      else
        scan_emit h tok ~lo ~hi acc ~sn:sc ~sc:sn ~sp prev expected curr' cf'
          next_g'

  let range_body =
    { Smr.Smr_intf.op3 = (fun tok h lo hi -> scan h tok ~lo ~hi []) }

  let range_mem h ~lo ~hi =
    if lo > hi then [] else S.with_op3 h.s range_body h lo hi

  (* Force the scheme's reclamation machinery; for shutdown and tests. *)
  let quiesce h = S.flush h.s

  (* Crash recovery (supervisor protocol): quiesce the dead handle's
     reservations, register a replacement on the same tid, move the
     orphaned limbo onto the replacement and sweep it once.  Must only
     run once [h]'s owner domain is dead; the returned handle is ready
     for a respawned worker. *)
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

  (* Quiescent-only observers for tests.  raw-load: no operation is in
     flight, so nothing can be retired concurrently and unprotected link
     loads are safe. *)

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

  (* Physical invariant: keys strictly increase along the list (marked
     nodes included), ending at the tail sentinel. *)
  let check_invariants t =
    let rec go last (l : N.link) =
      match l.ln with
      | None -> ()
      | Some n ->
          if n.key <= last then
            failwith
              (Printf.sprintf "Harris_list: key order violated (%d after %d)"
                 n.key last);
          if n.key <> max_int then
            go n.key ((* raw-load: quiescent *) Atomic.get n.next)
    in
    go min_int ((* raw-load: quiescent *) Atomic.get t.head)
end
