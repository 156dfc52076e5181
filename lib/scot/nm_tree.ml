(* Natarajan-Mittal lock-free external binary search tree [24] with SCOT
   (§3.3 of the paper).

   All real keys live in leaves; internal nodes carry routing keys.  Edges
   (child pointers) carry two bits: FLAG marks the edge to a leaf that is
   being deleted, TAG freezes the sibling edge of a flagged edge so the
   whole branch can be pruned with a single CAS at the *ancestor* (the last
   node on the access path reached through an untagged edge).  A chain of
   tagged edges is the tree's "dangerous zone": traversals skip over it
   optimistically, which is fundamentally incompatible with HP-style SMR
   without SCOT.

   SCOT (§3.3): five hazard roles — Hp0 the current child, Hp1 the leaf
   candidate, Hp2 the parent, Hp3 the successor (entrance of the tagged
   zone), Hp4 the ancestor.  At each step taken through the tagged zone we
   re-validate that the ancestor still points to the successor (comparing
   the physical edge record); on failure the operation restarts.  The
   recovery optimisation of §3.2.1 is deliberately not applied: the paper
   found it unhelpful for the tree (§3.2.2).

   Sentinels: two internal nodes R (key inf2) and S (key inf1) plus three
   sentinel leaves, exactly as in [24]; real keys are < inf1, so S is never
   the parent of a real leaf and the sentinels are never deleted.

   The seek fast path is allocation-free and stores nothing per step:
   protected edge loads go through the scheme's staged reader, and the
   seek record travels down as arguments and is written to handle fields
   once, at the leaf.  Nodes carry a prebuilt [rc] (pool-bound) so
   retiring a pruned branch allocates nothing.  Edge records themselves
   are still consed on the update paths (tag/flag/promote) — they are the
   CAS descriptors of the algorithm, not traversal state. *)

module G = Smr.Smr_intf.Guard

let hp_child = 0
let hp_leaf = 1
let hp_parent = 2
let hp_successor = 3
let hp_ancestor = 4
let slots_needed = 5

let inf1 = max_int - 1
let inf2 = max_int

type node =
  | Leaf of {
      hdr : Memory.Hdr.t;
      mutable key : int;
      mutable rc : Smr.Smr_intf.reclaimable;
    }
  | Internal of {
      hdr : Memory.Hdr.t;
      mutable key : int;
      left : edge Atomic.t;
      right : edge Atomic.t;
      mutable rc : Smr.Smr_intf.reclaimable;
    }

and edge = { dst : node; flag : bool; tag : bool }

let hdr_of = function Leaf { hdr; _ } | Internal { hdr; _ } -> hdr
let rc_of = function Leaf { rc; _ } | Internal { rc; _ } -> rc

let set_rc n rc =
  match n with Leaf l -> l.rc <- rc | Internal i -> i.rc <- rc

(* Dereference helpers; every access models a C pointer dereference and goes
   through the poison check.  They run on every seek step, so they inline
   into it. *)
let[@inline] key_of n =
  Memory.Hdr.check (hdr_of n);
  match n with Leaf { key; _ } | Internal { key; _ } -> key

type dir = L | R

let[@inline] child_field n (d : dir) =
  Memory.Hdr.check (hdr_of n);
  match n with
  | Internal { left; right; _ } -> ( match d with L -> left | R -> right)
  | Leaf _ -> invalid_arg "Nm_tree.child_field: leaf has no children"

let[@inline] dir_for ~key n = if key < key_of n then L else R
let opposite = function L -> R | R -> L

let edge ?(flag = false) ?(tag = false) dst = { dst; flag; tag }

(* Staged-reader descriptor: an edge always has a destination node. *)
let edge_desc : edge Smr.Smr_intf.desc =
  { is_null = (fun _ -> false); hdr = (fun e -> hdr_of e.dst) }

let nop_free (_ : int) = ()
let nop_rc hdr = { Smr.Smr_intf.hdr; free = nop_free }

let fresh_leaf key =
  let hdr = Memory.Hdr.create () in
  Leaf { hdr; key; rc = nop_rc hdr }

let fresh_internal key ~left ~right =
  let hdr = Memory.Hdr.create () in
  Internal
    {
      hdr;
      key;
      left = Atomic.make (edge left);
      right = Atomic.make (edge right);
      rc = nop_rc hdr;
    }

module NodeT = struct
  type t = node

  let hdr = hdr_of
end

module Pool = Memory.Pool.Make (NodeT)

(* Pool-bound makers (one per pool): fresh nodes get their [rc] built once;
   recycled nodes keep theirs. *)
let leaf_maker pool () =
  let n = fresh_leaf 0 in
  set_rc n
    { Smr.Smr_intf.hdr = hdr_of n; free = (fun tid -> Pool.free pool ~tid n) };
  n

let internal_maker pool =
  (* Placeholder destination for the freshly built edges; [alloc_internal]
     re-points both before the node is published. *)
  let dummy = fresh_leaf 0 in
  fun () ->
    let n = fresh_internal 0 ~left:dummy ~right:dummy in
    set_rc n
      {
        Smr.Smr_intf.hdr = hdr_of n;
        free = (fun tid -> Pool.free pool ~tid n);
      };
    n

module Make (S : Smr.Smr_intf.S) = struct
  exception Restart

  type t = {
    root : node; (* R sentinel *)
    sroot : node; (* S sentinel *)
    smr : S.t;
    leaf_pool : Pool.t;
    internal_pool : Pool.t;
    leaf_mk : unit -> node;
    internal_mk : unit -> node;
    restarts : Memory.Tcounter.t;
  }

  (* The last seek's record (original terminology, §3.3):
     [sk_parent]/[sk_leaf] are the last two nodes on the access path;
     [sk_successor] is the target of the last untagged edge, [sk_ancestor]
     its source, [sk_anc_edge] the physical edge record at the ancestor
     (the CAS expectation for pruning and the SCOT validation witness). *)
  type handle = {
    t : t;
    s : S.th;
    tid : int;
    rdr : edge S.reader;
    mutable sk_ancestor : node;
    mutable sk_successor : node;
    mutable sk_anc_edge : edge;
    mutable sk_parent : node;
    mutable sk_leaf : node;
    mutable sk_par_edge : edge;
  }

  let create ~smr ~threads () =
    let s_left = fresh_leaf inf1 and s_right = fresh_leaf inf2 in
    let sroot = fresh_internal inf1 ~left:s_left ~right:s_right in
    let r_right = fresh_leaf inf2 in
    let root = fresh_internal inf2 ~left:sroot ~right:r_right in
    let leaf_pool = Pool.create ~threads () in
    let internal_pool = Pool.create ~threads () in
    {
      root;
      sroot;
      smr;
      leaf_pool;
      internal_pool;
      leaf_mk = leaf_maker leaf_pool;
      internal_mk = internal_maker internal_pool;
      restarts = Memory.Tcounter.create ~threads;
    }

  let handle t ~tid =
    let s = S.register t.smr ~tid in
    {
      t;
      s;
      tid;
      rdr = S.reader s edge_desc;
      sk_ancestor = t.root;
      sk_successor = t.sroot;
      (* raw-load: sentinel edges at handle construction — the sentinels
         are never deleted and the values are overwritten by every seek. *)
      sk_anc_edge = Atomic.get (child_field t.root L);
      sk_parent = t.sroot;
      sk_leaf = t.sroot;
      sk_par_edge = (* raw-load: sentinel *) Atomic.get (child_field t.sroot L);
    }

  let alloc_leaf h key =
    let n = Pool.alloc h.t.leaf_pool ~tid:h.tid h.t.leaf_mk in
    (match n with
    | Leaf l -> l.key <- key
    | Internal _ -> assert false);
    S.on_alloc h.s (hdr_of n);
    n

  let alloc_internal h key ~left ~right =
    let n = Pool.alloc h.t.internal_pool ~tid:h.tid h.t.internal_mk in
    (match n with
    | Internal i ->
        i.key <- key;
        Atomic.set i.left (edge left);
        Atomic.set i.right (edge right)
    | Leaf _ -> assert false);
    S.on_alloc h.s (hdr_of n);
    n

  let dealloc_leaf h n =
    Memory.Hdr.mark_retired (hdr_of n);
    Pool.free h.t.leaf_pool ~tid:h.tid n

  (* Retire the pruned branch rooted at [n], sparing the promoted subtree.
     The region consists of the tagged internal chain plus its flagged
     leaves, all unreachable after the ancestor CAS. *)
  let rec retire_branch h (n : node) ~spare =
    if n != spare then begin
      (match n with
      | Leaf _ -> ()
      | Internal { left; right; _ } ->
          (* raw-load: the branch is unreachable and privately owned after
             the ancestor CAS; tagged edges never change. *)
          retire_branch h (Atomic.get left).dst ~spare;
          retire_branch h ((* raw-load: pruned *) Atomic.get right).dst ~spare);
      S.retire h.s (rc_of n)
    end

  (* SCOT validation: inside the tagged zone the ancestor must still hold
     the exact edge record we saw; otherwise part of the zone may already
     have been pruned and reclaimed.
     raw-load: validation witness — compared physically, never
     dereferenced. *)
  let[@inline] seek_validate key ancestor anc_edge =
    let d = dir_for ~key ancestor in
    if Atomic.get (child_field ancestor d) != anc_edge then raise Restart

  (* Protected edge load through the branded bracket (see [Harris_list]). *)
  let[@inline] protect_edge h tok ~slot field =
    G.deref (S.protect h.rdr tok ~slot field) tok

  (* The seek record travels as arguments and lands in [h.sk_*] once, when
     the seek reaches a leaf. *)
  let seek_found h ~ancestor ~successor ~anc_edge ~parent ~par_edge leaf =
    h.sk_ancestor <- ancestor;
    h.sk_successor <- successor;
    h.sk_anc_edge <- anc_edge;
    h.sk_parent <- parent;
    h.sk_leaf <- leaf;
    h.sk_par_edge <- par_edge

  let rec seek h tok key =
    try seek_attempt h tok key
    with Restart ->
      Memory.Tcounter.incr h.t.restarts ~tid:h.tid;
      seek h tok key

  and seek_attempt h tok key =
    let t = h.t in
    let ae = protect_edge h tok ~slot:hp_successor (child_field t.root L) in
    if ae.tag then raise Restart;
    let pe = protect_edge h tok ~slot:hp_leaf (child_field t.sroot L) in
    seek_loop h tok key ~ancestor:t.root ~successor:t.sroot ~anc_edge:ae
      ~parent:t.sroot ~par_edge:pe pe.dst

  and seek_loop h tok key ~ancestor ~successor ~anc_edge ~parent ~par_edge
      leaf =
    match leaf with
    | Leaf _ ->
        seek_found h ~ancestor ~successor ~anc_edge ~parent ~par_edge leaf
    | Internal _ as il ->
        let d = dir_for ~key il in
        let cur_edge = protect_edge h tok ~slot:hp_child (child_field il d) in
        if par_edge.tag then
          seek_descend h tok key ~ancestor ~successor ~anc_edge ~par_edge il
            cur_edge
        else begin
          (* The edge into [il] is untagged: advance ancestor/successor. *)
          S.dup h.s ~src:hp_parent ~dst:hp_ancestor;
          S.dup h.s ~src:hp_leaf ~dst:hp_successor;
          seek_descend h tok key ~ancestor:parent ~successor:il
            ~anc_edge:par_edge ~par_edge il cur_edge
        end

  (* Dangerous zone = tagged and flagged edges (Figure 6): a step arriving
     through a tagged edge, entering one, or crossing a flagged leaf edge
     — none of these links ever change after the branch is pruned, so
     only the ancestor->successor validation (run after the protection
     and before the next dereference, Theorem 2's ordering) proves the
     target is not reclaimed. *)
  and seek_descend h tok key ~ancestor ~successor ~anc_edge ~par_edge il
      cur_edge =
    if par_edge.tag || cur_edge.tag || cur_edge.flag then
      seek_validate key ancestor anc_edge;
    S.dup h.s ~src:hp_leaf ~dst:hp_parent;
    S.dup h.s ~src:hp_child ~dst:hp_leaf;
    seek_loop h tok key ~ancestor ~successor ~anc_edge ~parent:il
      ~par_edge:cur_edge cur_edge.dst

  (* Freeze an edge by setting its TAG bit (flag preserved); returns the
     frozen record.  Tagged edges never change again.
     raw-load: CAS expectation on a node the seek still protects. *)
  let rec tag_edge field =
    let e = Atomic.get field in
    if e.tag then e
    else
      let tagged = { e with tag = true } in
      if Atomic.compare_and_set field e tagged then tagged else tag_edge field

  (* Prune the branch between ancestor and parent (original CleanUp), using
     the current seek state in [h.sk_*].  Returns true iff this call
     performed the physical deletion. *)
  let cleanup h key =
    let d = dir_for ~key h.sk_parent in
    let child_field_d = child_field h.sk_parent d in
    let sibling_field = child_field h.sk_parent (opposite d) in
    (* If the edge on the key side is not flagged, the flagged edge is the
       sibling one and the key side is what survives ([24]'s switch).
       raw-load: flag inspection on the protected parent's own edge. *)
    let promote_field =
      if (Atomic.get child_field_d).flag then sibling_field else child_field_d
    in
    let frozen = tag_edge promote_field in
    let anc_d = dir_for ~key h.sk_ancestor in
    let desired = { dst = frozen.dst; flag = frozen.flag; tag = false } in
    if
      Atomic.compare_and_set
        (child_field h.sk_ancestor anc_d)
        h.sk_anc_edge desired
    then begin
      retire_branch h h.sk_successor ~spare:frozen.dst;
      true
    end
    else false

  let check_key key =
    if key >= inf1 then invalid_arg "Nm_tree: key must be < max_int - 1"

  (* Operation bodies under the branded bracket.  The update bodies keep
     inner recursive closures (they capture the token and fresh nodes) —
     the tree's update path conses edge records anyway, so the closure is
     irrelevant; the zero-allocation guarantee covers the search. *)
  let search_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          seek h tok key;
          key_of h.sk_leaf = key);
    }

  let search h key =
    check_key key;
    S.with_op2 h.s search_body h key

  let insert_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          let new_leaf = alloc_leaf h key in
          (* Checkpoints only fire inside [seek], strictly before the
             publish CAS, so on a neutralization both fresh nodes are
             still private ([loop] unpublishes the internal itself on CAS
             failure): release the leaf before the bracket restarts the
             body, which allocates afresh. *)
          let rec loop () =
            seek h tok key;
            if key_of h.sk_leaf = key then begin
              dealloc_leaf h new_leaf;
              false
            end
            else if h.sk_par_edge.flag || h.sk_par_edge.tag then begin
              (* The leaf edge is being deleted: help prune, then retry. *)
              ignore (cleanup h key);
              loop ()
            end
            else begin
              let leaf = h.sk_leaf in
              let leaf_key = key_of leaf in
              let left, right =
                if key < leaf_key then (new_leaf, leaf) else (leaf, new_leaf)
              in
              let new_internal =
                alloc_internal h (max key leaf_key) ~left ~right
              in
              let d = dir_for ~key h.sk_parent in
              if
                Atomic.compare_and_set (child_field h.sk_parent d)
                  h.sk_par_edge (edge new_internal)
              then true
              else begin
                (* Unpublish the internal node and retry; help if our CAS
                   lost to a deletion of this very leaf. *)
                Memory.Hdr.mark_retired (hdr_of new_internal);
                Pool.free h.t.internal_pool ~tid:h.tid new_internal;
                let e =
                  (* raw-load: CAS-failure diagnosis on the protected
                     parent's own edge. *)
                  Atomic.get (child_field h.sk_parent d)
                in
                if e.dst == leaf && (e.flag || e.tag) then
                  ignore (cleanup h key);
                loop ()
              end
            end
          in
          match loop () with
          | r -> r
          | exception Smr.Smr_intf.Neutralized ->
              dealloc_leaf h new_leaf;
              raise Smr.Smr_intf.Neutralized);
    }

  let insert h key =
    check_key key;
    S.with_op2 h.s insert_body h key

  let delete_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h key ->
          (* Injection mode: flag the leaf edge to own the deletion;
             cleanup mode: keep pruning until the leaf is physically gone
             (possibly removed for us by a concurrent chain prune). *)
          let rec injection () =
            seek h tok key;
            if key_of h.sk_leaf <> key then false
            else if h.sk_par_edge.flag || h.sk_par_edge.tag then begin
              if h.sk_par_edge.dst == h.sk_leaf then ignore (cleanup h key);
              injection ()
            end
            else begin
              let leaf = h.sk_leaf in
              let d = dir_for ~key h.sk_parent in
              let flagged = { dst = leaf; flag = true; tag = false } in
              if
                Atomic.compare_and_set (child_field h.sk_parent d)
                  h.sk_par_edge flagged
              then begin
                if cleanup h key then true
                else begin
                  (* The delete linearized at the flag CAS: the remaining
                     pruning traversals ([seek] inside [cleanup_mode]) run
                     under [mask] so a neutralization cannot restart an
                     operation that already took effect. *)
                  S.mask h.s;
                  let r = cleanup_mode leaf in
                  S.unmask h.s;
                  r
                end
              end
              else begin
                let e =
                  (* raw-load: CAS-failure diagnosis on the protected
                     parent's own edge. *)
                  Atomic.get (child_field h.sk_parent d)
                in
                if e.dst == leaf && (e.flag || e.tag) then
                  ignore (cleanup h key);
                injection ()
              end
            end
          and cleanup_mode target =
            seek h tok key;
            if h.sk_leaf != target then true
              (* pruned by a concurrent operation *)
            else if cleanup h key then true
            else cleanup_mode target
          in
          injection ());
    }

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
      ("leaf_fresh", Pool.allocated_fresh t.leaf_pool);
      ("leaf_freed", Pool.freed t.leaf_pool);
      ("internal_fresh", Pool.allocated_fresh t.internal_pool);
      ("internal_freed", Pool.freed t.internal_pool);
    ]

  (* Quiescent-only observers for tests: unprotected loads are safe with
     no operation in flight. *)

  let to_list t =
    let rec go acc n =
      match n with
      | Leaf { key; _ } -> if key >= inf1 then acc else key :: acc
      | Internal { left; right; _ } ->
          (* raw-load: quiescent *)
          go (go acc (Atomic.get right).dst) (Atomic.get left).dst
    in
    List.sort compare (go [] t.root)

  let size t = List.length (to_list t)

  (* Physical invariants of the external BST: leaf keys respect the routing
     keys; every internal node has two children. *)
  let check_invariants t =
    let rec go n lo hi =
      match n with
      | Leaf { key; _ } ->
          (* Sentinel leaves (inf1/inf2) sit at the routing boundary by
             construction [24]; only real keys obey the strict ranges. *)
          if key < inf1 && not (lo <= key && key <= hi) then
            failwith
              (Printf.sprintf "Nm_tree: leaf key %d outside [%d, %d]" key lo hi)
      | Internal { key; left; right; _ } ->
          (* raw-load: quiescent *)
          go (Atomic.get left).dst lo (key - 1);
          go ((* raw-load: quiescent *) Atomic.get right).dst (max lo key) hi
    in
    go t.root min_int max_int
end
