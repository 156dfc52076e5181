(* Lock-free skip list with SCOT — the Table 1 extension (the Fraser [12] /
   Herlihy-Shavit [18] family).

   A tower node participates in one Harris-style list per level.  Logical
   deletion marks the per-level links from the top level down; a node is
   deleted once its level-0 link is marked.  Traversals:

   - Search skips marked nodes optimistically at EVERY level under the SCOT
     dangerous-zone validation (the last safe node of the current level must
     still hold the link record we read from it).
   - Update traversals unlink eagerly at levels >= 1 (Harris-Michael style,
     one node at a time from an unmarked predecessor) and use the
     Harris/SCOT one-CAS chain cleanup at level 0.

   Reclamation is subtler than for single-list structures, because a tall
   node is published with several CASes and its inserter keeps touching it
   after publication (to link the upper levels) — a deleter that retires
   too early would let the inserter re-link a freed node.  Two mechanisms
   make this safe under every robust scheme:

   - the inserter protects its own node in a dedicated hazard slot (self-
     allocated nodes are otherwise invisible to HP/HE/IBR reservations), and
   - a three-state ownership handoff decides the unique retirer: the node
     starts as [linking]; the inserter's final act is CAS linking->linked;
     a deleter that wins the level-0 mark does CAS linking->delegated.
     Whoever loses the CAS race knows the other party is gone and performs
     the retire after a final unlinking traversal.

   Hazard slots: 0 = next, 1 = curr, 2 = first unsafe node of the current
   level, 3 = the inserter's own node, 4+l = the level-l predecessor (kept
   live for the multi-level insert CASes).  Dups go low -> high.

   As in the list structures, the operation fast paths are allocation-free:
   staged protected loads, canonical per-node link records (including the
   canonical [Some self] reused for predecessor tracking), a prebuilt
   retire record per node, a per-level cursor threaded through arguments,
   and per-level traversal results stored once per level in handle-owned
   arrays instead of a consed array-of-records. *)

module G = Smr.Smr_intf.Guard

let max_height = 12

let hp_next = 0
let hp_curr = 1
let hp_unsafe = 2
let hp_own = 3
let hp_pred l = 4 + l
let slots_needed = 4 + max_height

(* Ownership handoff states. *)
let st_linking = 0
let st_linked = 1
let st_delegated = 2

type node = {
  hdr : Memory.Hdr.t;
  mutable key : int;
  mutable height : int;
  state : int Atomic.t;
  next : link Atomic.t array; (* length max_height; [0..height-1] in use *)
  in_link : link; (* canonical { ln = Some self; marked = false } *)
  in_link_marked : link; (* canonical { ln = Some self; marked = true } *)
  mutable rc : Smr.Smr_intf.reclaimable;
}

and link = { ln : node option; marked : bool }

let null_link = { ln = None; marked = false }
let marked_null = { ln = None; marked = true }

(* Canonical (allocation-free) link constructors. *)
let marked_copy l =
  match l.ln with None -> marked_null | Some n -> n.in_link_marked

let unmarked_copy l = match l.ln with None -> null_link | Some n -> n.in_link
let link_of_opt = function None -> null_link | Some n -> n.in_link

let desc : link Smr.Smr_intf.desc =
  {
    is_null = (fun l -> match l.ln with None -> true | Some _ -> false);
    hdr =
      (fun l ->
        match l.ln with Some n -> n.hdr | None -> assert false (* is_null *));
  }

let nop_free (_ : int) = ()

let fresh_node ~key ~height =
  let hdr = Memory.Hdr.create () in
  let rec n =
    {
      hdr;
      key;
      height;
      state = Atomic.make st_linking;
      next = Array.init max_height (fun _ -> Atomic.make null_link);
      in_link = { ln = Some n; marked = false };
      in_link_marked = { ln = Some n; marked = true };
      rc = { Smr.Smr_intf.hdr; free = nop_free };
    }
  in
  n

(* Dereference helpers with the poison check; they run on every hop, so
   they inline into it. *)
let[@inline] key_of n =
  Memory.Hdr.check n.hdr;
  n.key

let height_of n =
  Memory.Hdr.check n.hdr;
  n.height

let[@inline] next_field n l =
  Memory.Hdr.check n.hdr;
  n.next.(l)

module NodeT = struct
  type t = node

  let hdr n = n.hdr
end

module Pool = Memory.Pool.Make (NodeT)

(* Pool-bound maker: fresh nodes get their [rc] built once; recycled nodes
   keep theirs (the closure references that exact node). *)
let maker pool () =
  let n = fresh_node ~key:0 ~height:1 in
  n.rc <- { Smr.Smr_intf.hdr = n.hdr; free = (fun tid -> Pool.free pool ~tid n) };
  n

module Make (S : Smr.Smr_intf.S) = struct
  exception Restart

  type t = {
    head : link Atomic.t array; (* implicit pre-head tower *)
    smr : S.t;
    pool : Pool.t;
    mk : unit -> node;
    restarts : Memory.Tcounter.t;
    optimistic : bool;
  }

  type handle = {
    t : t;
    s : S.th;
    tid : int;
    rdr : link S.reader;
    mutable rng : int;
    own_cell : link Atomic.t; (* staging cell for [protect_own] *)
    (* Per-level traversal results (the old [found.levels], hoisted). *)
    level_prev : link Atomic.t array;
    level_expected : link array;
    level_pred : node option array;
    level_curr : node option array;
    (* [apply_batch]'s same-key coalescing memo (see Hashmap): key and
       membership of the latest op of the current dispatch; only a
       contiguous same-key run coalesces. *)
    mutable last_key : int;
    mutable last_mem : bool;
    mutable last_valid : bool;
    (* [apply_batch]'s resume cursor: index of the first request not yet
       dispatched.  Survives a bracket restart after a neutralization so
       already-linearized requests are not re-executed. *)
    mutable batch_pos : int;
  }

  (* [optimistic:false] gives the Herlihy-Shavit-style baseline: searches
     run the eager-unlink traversal too (no read-only searches), which is
     HP-compatible without SCOT — the skip-list analogue of the
     Harris-Michael list (Table 1). *)
  let create ?(optimistic = true) ~smr ~threads () =
    let pool = Pool.create ~threads () in
    {
      head = Array.init max_height (fun _ -> Atomic.make null_link);
      smr;
      pool;
      mk = maker pool;
      restarts = Memory.Tcounter.create ~threads;
      optimistic;
    }

  let handle t ~tid =
    let s = S.register t.smr ~tid in
    {
      t;
      s;
      tid;
      rdr = S.reader s desc;
      rng = ((tid + 1) * 0x9E3779B9) lor 1;
      own_cell = Atomic.make null_link;
      level_prev = Array.make max_height t.head.(0);
      level_expected = Array.make max_height null_link;
      level_pred = Array.make max_height None;
      level_curr = Array.make max_height None;
      last_key = 0;
      last_mem = false;
      last_valid = false;
      batch_pos = 0;
    }

  (* Geometric tower height (p = 1/2), capped at [max_height]; xorshift on
     unboxed int state. *)
  let random_height h =
    let x = h.rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    let x = if x = 0 then 0x9E3779B9 else x in
    h.rng <- x;
    let bits = x land max_int in
    let rec first_zero i =
      if i >= max_height - 1 then max_height - 1
      else if bits land (1 lsl i) = 0 then i
      else first_zero (i + 1)
    in
    first_zero 0 + 1

  (* Traverse one level.  The cursor travels as arguments — [prev] the
     last safe link cell, [expected] the physical record read from it,
     [pred] the node owning [prev] ([None] for the head tower) — and the
     result for level [l] lands in [h.level_*.(l)] once ([lf_finish]).
     [eager] = Harris-Michael eager unlinking (update traversals, levels
     >= 1); otherwise marked nodes are skipped under the SCOT validation
     and, when [cleanup], the adjacent chain is removed with one CAS (never
     retired here — see header). *)
  let lf_finish h ~level prev expected pred curr =
    h.level_prev.(level) <- prev;
    h.level_expected.(level) <- expected;
    h.level_pred.(level) <- pred;
    h.level_curr.(level) <- curr

  (* The one-CAS chain unlink on leaving the dangerous zone; returns the
     link now expected in [prev]. *)
  let lf_unlink ~cleanup prev expected desired =
    if not cleanup then expected
    else if Atomic.compare_and_set prev expected desired then desired
    else raise Restart

  (* Protected load through the branded bracket (see [Harris_list]). *)
  let[@inline] protect_link h tok ~slot field =
    G.deref (S.protect h.rdr tok ~slot field) tok

  let rec lf_step h tok ~level ~eager ~cleanup key prev expected pred
      (curr : node option) =
    match curr with
    | None -> lf_finish h ~level prev expected pred None
    | Some c ->
        let cf = next_field c level in
        let next = protect_link h tok ~slot:hp_next cf in
        if next.marked then
          if eager then begin
            (* Unlink the single marked node from its unmarked pred. *)
            let desired = unmarked_copy next in
            if not (Atomic.compare_and_set prev expected desired) then
              raise Restart;
            S.dup h.s ~src:hp_next ~dst:hp_curr;
            lf_step h tok ~level ~eager ~cleanup key prev desired pred next.ln
          end
          else begin
            (* Enter the dangerous zone: protect the first unsafe node. *)
            S.dup h.s ~src:hp_curr ~dst:hp_unsafe;
            lf_zone h tok ~level ~eager ~cleanup key prev expected pred next
          end
        else if key_of c >= key then lf_finish h ~level prev expected pred curr
        else lf_advance h tok ~level ~eager ~cleanup key c cf next

  (* A safe hop: [c] (whose next field is [cf]) becomes the last safe
     node. *)
  and lf_advance h tok ~level ~eager ~cleanup key c cf next =
    S.dup h.s ~src:hp_curr ~dst:(hp_pred level);
    S.dup h.s ~src:hp_next ~dst:hp_curr;
    lf_step h tok ~level ~eager ~cleanup key cf next c.in_link.ln next.ln

  and lf_zone h tok ~level ~eager ~cleanup key prev expected pred
      (next : link) =
    (* [next] points at a protected-but-unvalidated target; validate the
       last safe link before dereferencing it (Theorem 2's ordering).
       raw-load: validation witness — compared physically, never
       dereferenced. *)
    if Atomic.get prev != expected then raise Restart;
    match next.ln with
    | None ->
        let expected = lf_unlink ~cleanup prev expected null_link in
        lf_finish h ~level prev expected pred None
    | Some c' ->
        S.dup h.s ~src:hp_next ~dst:hp_curr;
        let cf' = next_field c' level in
        let next' = protect_link h tok ~slot:hp_next cf' in
        if next'.marked then
          lf_zone h tok ~level ~eager ~cleanup key prev expected pred next'
        else
          lf_exit_zone h tok ~level ~eager ~cleanup key prev expected pred c'
            cf' next'

  and lf_exit_zone h tok ~level ~eager ~cleanup key prev expected pred c' cf'
      next' =
    let expected = lf_unlink ~cleanup prev expected c'.in_link in
    if key_of c' >= key then lf_finish h ~level prev expected pred c'.in_link.ln
    else lf_advance h tok ~level ~eager ~cleanup key c' cf' next'

  let level_find h tok ~level ~eager ~cleanup key ~(start : link Atomic.t)
      ~(start_node : node option) =
    let e = protect_link h tok ~slot:hp_curr start in
    if e.marked then raise Restart;
    lf_step h tok ~level ~eager ~cleanup key start e start_node e.ln

  (* The descent, level by level from the top: a top-level recursion over
     explicit arguments (an inner [let rec] would cons a closure per
     find). *)
  let rec find_down h tok ~eager key l (start_node : node option) =
    if l >= 0 then begin
      let start =
        match start_node with
        | None -> h.t.head.(l)
        | Some n -> next_field n l
      in
      level_find h tok ~level:l ~eager:(eager && l > 0)
        ~cleanup:(eager && l = 0) key ~start ~start_node;
      find_down h tok ~eager key (l - 1) h.level_pred.(l)
    end

  let rec find h tok ~eager key =
    try find_down h tok ~eager key (max_height - 1) None
    with Restart ->
      Memory.Tcounter.incr h.t.restarts ~tid:h.tid;
      find h tok ~eager key

  let check_key key =
    if key >= max_int then invalid_arg "Skiplist: key must be < max_int"

  let found_key h key =
    match h.level_curr.(0) with Some c -> key_of c = key | None -> false

  let search_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          find h tok ~eager:(not h.t.optimistic) key;
          found_key h key);
    }

  let search h key =
    check_key key;
    S.with_op2 h.s search_body h key

  (* Protect our own freshly published node: self-allocated nodes are not
     covered by any read-side reservation, yet the inserter keeps touching
     the node while linking upper levels.  The node's canonical link is
     staged through a handle-owned cell so the staged reader can protect
     and validate it like any other field. *)
  let protect_own h tok (node : node) =
    Atomic.set h.own_cell node.in_link;
    ignore (S.protect h.rdr tok ~slot:hp_own h.own_cell)

  (* Unlike the lists, the insert/delete bodies keep inner recursive
     closures (they capture the token and the freshly allocated node) —
     the skip list's update path allocates the tower anyway, so the
     closure cons is irrelevant; the zero-allocation guarantee covers the
     search. *)
  let insert_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          let height = random_height h in
          let node = Pool.alloc h.t.pool ~tid:h.tid h.t.mk in
          node.key <- key;
          node.height <- height;
          Atomic.set node.state st_linking;
          Array.iter (fun a -> Atomic.set a null_link) node.next;
          S.on_alloc h.s node.hdr;
          (* Link level [l]; gives up as soon as the node is marked.
             raw-load: [node] is our own, kept protected by [hp_own]. *)
          let rec link_upper l =
            if l < height then begin
              find h tok ~eager:true key;
              let cur = (* raw-load: own node *) Atomic.get node.next.(l) in
              if
                cur.marked
                || ((* raw-load: own node *) Atomic.get node.next.(0)).marked
              then ()
              else if
                Atomic.compare_and_set node.next.(l) cur
                  (link_of_opt h.level_curr.(l))
                && Atomic.compare_and_set h.level_prev.(l)
                     h.level_expected.(l) node.in_link
              then link_upper (l + 1)
              else link_upper l
            end
          in
          let rec attempt () =
            find h tok ~eager:true key;
            if found_key h key then begin
              Memory.Hdr.mark_retired node.hdr;
              Pool.free h.t.pool ~tid:h.tid node;
              false
            end
            else begin
              for l = 0 to height - 1 do
                Atomic.set node.next.(l) (link_of_opt h.level_curr.(l))
              done;
              protect_own h tok node;
              if
                Atomic.compare_and_set h.level_prev.(0) h.level_expected.(0)
                  node.in_link
              then begin
                (* Linearized at the level-0 CAS: the remaining work
                   (upper links, ownership handoff, possibly retiring our
                   own delegated tower) performs protected loads but must
                   not be restarted — run it under [mask]. *)
                S.mask h.s;
                link_upper 1;
                (* Ownership handoff: if a deleter already delegated, we
                   are the unique retirer and must unlink our own
                   half-linked tower. *)
                if
                  not (Atomic.compare_and_set node.state st_linking st_linked)
                then begin
                  find h tok ~eager:true key;
                  S.retire h.s node.rc
                end;
                S.unmask h.s;
                true
              end
              else attempt ()
            end
          in
          (* A neutralization can only fire before the level-0 publish CAS
             (the post-publish phase is masked), so the node is still
             private: release it before the bracket restarts the body. *)
          match attempt () with
          | r -> r
          | exception Smr.Smr_intf.Neutralized ->
              Memory.Hdr.mark_retired node.hdr;
              Pool.free h.t.pool ~tid:h.tid node;
              raise Smr.Smr_intf.Neutralized);
    }

  let insert h key =
    check_key key;
    S.with_op2 h.s insert_body h key

  let delete_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          let rec attempt () =
            find h tok ~eager:true key;
            match h.level_curr.(0) with
            | Some c when key_of c = key ->
                (* Mark from the top level down.  raw-load: [c] is held by
                   the traversal's hazard slots; the loads feed CASes on
                   the protected node's own links. *)
                let hgt = height_of c in
                for l = hgt - 1 downto 1 do
                  let rec mark () =
                    let cur =
                      (* raw-load: protected node *) Atomic.get (next_field c l)
                    in
                    if not cur.marked then
                      if
                        not
                          (Atomic.compare_and_set (next_field c l) cur
                             (marked_copy cur))
                      then mark ()
                  in
                  mark ()
                done;
                let rec mark0 () =
                  let cur =
                    (* raw-load: protected node *) Atomic.get (next_field c 0)
                  in
                  if cur.marked then false
                  else if
                    Atomic.compare_and_set (next_field c 0) cur
                      (marked_copy cur)
                  then true
                  else mark0 ()
                in
                if mark0 () then begin
                  (* We own the deletion.  Resolve the ownership handoff
                     FIRST: if the inserter is still linking, delegate —
                     its final traversal (which runs after its last link
                     CAS) will unlink and retire.  Otherwise the inserter
                     has installed its last link, so our own eager
                     traversal is guaranteed to see every level and we
                     retire after it. *)
                  if Atomic.compare_and_set c.state st_linking st_delegated
                  then true
                  else begin
                    (* Linearized at [mark0]; the cleanup traversal's
                       protected loads must not trigger a restart. *)
                    S.mask h.s;
                    find h tok ~eager:true key;
                    S.retire h.s c.rc;
                    S.unmask h.s;
                    true
                  end
                end
                else attempt ()
            | _ -> false
          in
          attempt ());
    }

  let delete h key =
    check_key key;
    S.with_op2 h.s delete_body h key

  (* Single-bracket batch dispatch (see Hashmap.apply_batch): every
     request in the buffer runs under one [start_op]/[end_op], each
     reusing the traversal scratch and hazard slots of the previous one
     exactly as back-to-back brackets would.  Same-key repeats coalesce
     exactly as in the hashmap — CONTIGUOUS runs only: a repeat directly
     following its predecessor may linearize immediately after it, so a
     get reports the memoised membership and redundant put/delete
     repeats are failed no-ops, while any physical op on a different
     key invalidates the memo (its result can pin external operations
     between predecessor and repeat; see the hashmap's comment). *)
  let apply_batch_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h (b : Batch_op.buf) ->
          (* On a neutralization restart, resume at [h.batch_pos]: requests
             before it already linearized and stored their results.  The
             coalescing memo is dropped (it is only a shortcut; the aborted
             attempt linearized nothing, so correctness is unaffected). *)
          h.last_valid <- false;
          let start = h.batch_pos in
          for i = start to b.Batch_op.n - 1 do
            let key = b.Batch_op.keys.(i) in
            let kind = b.Batch_op.kinds.(i) in
            let known = h.last_valid && h.last_key = key in
            if
              known
              && (if kind = Batch_op.get then true
                  else if kind = Batch_op.put then h.last_mem
                  else not h.last_mem)
            then
              b.Batch_op.results.(i) <-
                (if kind = Batch_op.get then h.last_mem else false)
            else begin
              let r =
                if kind = Batch_op.get then
                  search_body.Smr.Smr_intf.op2 tok h key
                else if kind = Batch_op.put then
                  insert_body.Smr.Smr_intf.op2 tok h key
                else delete_body.Smr.Smr_intf.op2 tok h key
              in
              b.Batch_op.results.(i) <- r;
              h.last_key <- key;
              h.last_mem <-
                (if kind = Batch_op.get then r else kind = Batch_op.put);
              h.last_valid <- true
            end;
            h.batch_pos <- i + 1
          done;
          h.last_valid <- false);
    }

  let apply_batch h (b : Batch_op.buf) =
    (* Validate before entering the bracket: a raise inside it skips
       [end_op] by design. *)
    for i = 0 to b.Batch_op.n - 1 do
      if b.Batch_op.keys.(i) >= max_int then
        invalid_arg "Skiplist.apply_batch: key must be < max_int"
    done;
    h.batch_pos <- 0;
    if b.Batch_op.n > 0 then S.with_op2 h.s apply_batch_body h b

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
      ("fresh", Pool.allocated_fresh t.pool);
      ("recycled", Pool.recycled t.pool);
      ("freed", Pool.freed t.pool);
    ]

  (* Quiescent-only observers: unprotected loads are safe with no
     operation in flight. *)

  let to_list t =
    let rec go acc (l : link) =
      match l.ln with
      | None -> List.rev acc
      | Some n ->
          let next = (* raw-load: quiescent *) Atomic.get n.next.(0) in
          let acc = if next.marked then acc else n.key :: acc in
          go acc next
    in
    go [] ((* raw-load: quiescent *) Atomic.get t.head.(0))

  let size t = List.length (to_list t)

  let check_invariants t =
    (* Level 0 strictly sorted. *)
    let rec go last (l : link) =
      match l.ln with
      | None -> ()
      | Some n ->
          if n.key <= last then
            failwith
              (Printf.sprintf "Skiplist: key order violated (%d after %d)"
                 n.key last);
          go n.key ((* raw-load: quiescent *) Atomic.get n.next.(0))
    in
    go min_int ((* raw-load: quiescent *) Atomic.get t.head.(0));
    (* Each upper level must be sorted as well, and (at quiescence) an
       unmarked upper link may only belong to a node still live at level
       0. *)
    for l = 1 to max_height - 1 do
      let rec walk last (lk : link) =
        match lk.ln with
        | None -> ()
        | Some n ->
            if n.key <= last then
              failwith
                (Printf.sprintf
                   "Skiplist: level %d order violated (%d after %d)" l n.key
                   last);
            walk n.key ((* raw-load: quiescent *) Atomic.get n.next.(l))
      in
      walk min_int ((* raw-load: quiescent *) Atomic.get t.head.(l))
    done
end
