(* Behavioural tests for every SMR scheme through the uniform interface:
   reclamation of unprotected retires, protection across reads and dups,
   robustness bounds with a stalled thread (Theorem 1's setting), and the
   Hyaline-specific any-thread reclamation. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let reclaimable hdr : Smr.Smr_intf.reclaimable =
  { hdr; free = (fun _tid -> Memory.Hdr.mark_reclaimed hdr) }

let config_small =
  Smr.Smr_intf.make_config ~limbo_threshold:4 ~epoch_freq:4 ~batch_size:2
    ~threads:1 ()

(* Descriptor for a bare [Memory.Hdr.t option] cell — the minimal shape the
   branded bracket API reads through ([hdr] is only consulted on non-null
   values). *)
let hdr_desc =
  { Smr.Smr_intf.is_null = Option.is_none; hdr = Option.get }

(* Unprotected retires are eventually reclaimed (all schemes except NR). *)
let test_reclaims_unprotected (module S : Smr.Smr_intf.S) () =
  let mk_hdr th =
    let hdr = Memory.Hdr.create () in
    S.on_alloc th hdr;
    hdr
  in
  let t = S.create ~config:config_small ~threads:1 ~slots:2 () in
  let th = S.register t ~tid:0 in
  let hdrs =
    List.init 64 (fun _ ->
        S.start_op th;
        let h = mk_hdr th in
        S.end_op th;
        h)
  in
  List.iter (fun h -> S.retire th (reclaimable h)) hdrs;
  S.flush th;
  if S.name = "NR" then begin
    check_int "NR leaks everything" 64 (S.unreclaimed t);
    check "NR frees nothing" true
      (List.for_all (fun h -> not (Memory.Hdr.is_reclaimed h)) hdrs)
  end
  else begin
    check_int "everything reclaimed" 0 (S.unreclaimed t);
    check "all poisoned" true (List.for_all Memory.Hdr.is_reclaimed hdrs)
  end

(* A protected node survives reclamation passes until the protection is
   dropped. *)
let test_protection_blocks_reclaim (module S : Smr.Smr_intf.S) () =
  if S.name = "NR" then ()
  else begin
    let mk_hdr th =
      let hdr = Memory.Hdr.create () in
      S.on_alloc th hdr;
      hdr
    in
    let t = S.create ~config:config_small ~threads:2 ~slots:2 () in
    let reader = S.register t ~tid:0 in
    let writer = S.register t ~tid:1 in
    S.start_op writer;
    let hdr = mk_hdr writer in
    S.end_op writer;
    let cell = Atomic.make (Some hdr) in
    let rdr = S.reader reader hdr_desc in
    (* Reader protects the node inside a branded bracket; the writer's
       unlink/retire/reclaim storm runs while that bracket is live. *)
    S.with_op reader
      {
        Smr.Smr_intf.op0 =
          (fun tok ->
            let g = S.protect rdr tok ~slot:0 cell in
            check "reader saw the node" true
              (match Smr.Smr_intf.Guard.deref g tok with
              | Some h -> h == hdr
              | None -> false);
            (* Writer unlinks, retires and aggressively reclaims. *)
            Atomic.set cell None;
            S.start_op writer;
            S.retire writer (reclaimable hdr);
            for _ = 1 to 32 do
              let filler = mk_hdr writer in
              S.retire writer (reclaimable filler)
            done;
            S.flush writer;
            check "protected node not reclaimed" false
              (Memory.Hdr.is_reclaimed hdr));
      };
    (* Protection dropped with the bracket; now it must go. *)
    S.end_op writer;
    S.flush writer;
    check "reclaimed after protection dropped" true
      (Memory.Hdr.is_reclaimed hdr)
  end

(* dup must keep the node protected when the original slot is reused
   (the ascending-index discipline of §3.2 relies on this). *)
let test_dup_preserves_protection (module S : Smr.Smr_intf.S) () =
  if S.name = "NR" then ()
  else begin
    let mk_hdr th =
      let hdr = Memory.Hdr.create () in
      S.on_alloc th hdr;
      hdr
    in
    let t = S.create ~config:config_small ~threads:2 ~slots:3 () in
    let reader = S.register t ~tid:0 in
    let writer = S.register t ~tid:1 in
    S.start_op writer;
    let hdr = mk_hdr writer in
    let decoy = mk_hdr writer in
    S.end_op writer;
    let cell = Atomic.make (Some hdr) in
    let decoy_cell = Atomic.make (Some decoy) in
    let rdr = S.reader reader hdr_desc in
    S.with_op reader
      {
        Smr.Smr_intf.op0 =
          (fun tok ->
            ignore (S.protect rdr tok ~slot:0 cell);
            S.dup reader ~src:0 ~dst:1;
            (* Slot 0 is re-used for something else. *)
            ignore (S.protect rdr tok ~slot:0 decoy_cell);
            Atomic.set cell None;
            S.start_op writer;
            S.retire writer (reclaimable hdr);
            for _ = 1 to 32 do
              S.retire writer (reclaimable (mk_hdr writer))
            done;
            S.flush writer;
            check "dup kept the node protected" false
              (Memory.Hdr.is_reclaimed hdr));
      };
    S.end_op writer;
    S.flush writer;
    check "reclaimed after end_op" true (Memory.Hdr.is_reclaimed hdr)
  end

(* Theorem 1's setting: with one thread parked inside an operation, robust
   schemes keep the number of unreclaimed objects bounded; EBR does not. *)
let test_stalled_thread_bound (module S : Smr.Smr_intf.S) () =
  if S.name = "NR" then ()
  else begin
    let mk_hdr th =
      let hdr = Memory.Hdr.create () in
      S.on_alloc th hdr;
      hdr
    in
    let total = 4_000 in
    let t = S.create ~config:config_small ~threads:2 ~slots:2 () in
    let stalled = S.register t ~tid:0 in
    let worker = S.register t ~tid:1 in
    S.start_op stalled (* ... and never ends its operation *);
    (* A neutralizing scheme is only robust against a stall the chaos
       engine can vouch for: model the stalled thread as parked at a
       checkpoint so posted neutralizations can be marked delivered. *)
    let caps = S.capabilities in
    if caps.Smr.Smr_intf.neutralizing then
      Smr.Probe.note_parked 0 Smr.Probe.Read;
    for _ = 1 to total do
      S.start_op worker;
      let h = mk_hdr worker in
      S.retire worker (reclaimable h);
      S.end_op worker
    done;
    S.flush worker;
    if caps.Smr.Smr_intf.neutralizing then Smr.Probe.note_unparked 0;
    let unr = S.unreclaimed t in
    if caps.Smr.Smr_intf.robust then
      check
        (Printf.sprintf "%s: bounded despite stall (got %d)" S.name unr)
        true
        (unr < total / 4)
    else
      check
        (Printf.sprintf "%s (EBR): unbounded growth (got %d)" S.name unr)
        true (unr = total)
  end

(* Hyaline-specific: reclamation is performed by whichever thread drops the
   last reference — here the *reader*, at end_op, not the retiring thread. *)
let test_hyaline_any_thread_reclamation () =
  let module H = Smr.Hyaline in
  let t = H.create ~config:config_small ~threads:2 ~slots:1 () in
  let reader = H.register t ~tid:0 in
  let writer = H.register t ~tid:1 in
  H.start_op reader;
  (* Writer retires a full batch while the reader is active: the batch is
     dispatched to the reader. *)
  H.start_op writer;
  let hdrs =
    List.init 8 (fun _ ->
        let h = Memory.Hdr.create () in
        H.on_alloc writer h;
        h)
  in
  List.iter (fun h -> H.retire writer (reclaimable h)) hdrs;
  H.flush writer;
  H.end_op writer;
  check "still pinned by the active reader" true
    (List.exists (fun h -> not (Memory.Hdr.is_reclaimed h)) hdrs);
  (* The reader finishes its op: it must free the batch itself. *)
  H.end_op reader;
  check "reader reclaimed the batch at end_op" true
    (List.for_all Memory.Hdr.is_reclaimed hdrs);
  check_int "nothing left" 0 (H.unreclaimed t)

(* DBR neutralization, driven deterministically: a reader parks its
   announcement at an old epoch, the worker's storm advances the epoch far
   enough that the reclaimer posts a neutralization, and the reader's next
   checkpoint (inside [protect]) unwinds the attempt.  The bracket
   restarts the body with a fresh brand; the re-announced epoch unpins the
   storm even though the reader is still inside its (restarted) op. *)
let test_debra_neutralization_restart () =
  let module D = Smr.Debra in
  let t = D.create ~config:config_small ~threads:2 ~slots:2 () in
  let reader = D.register t ~tid:0 in
  let worker = D.register t ~tid:1 in
  let cell : Memory.Hdr.t option Atomic.t = Atomic.make None in
  let rdr = D.reader reader hdr_desc in
  let attempts = ref 0 in
  D.with_op reader
    {
      Smr.Smr_intf.op0 =
        (fun tok ->
          incr attempts;
          if !attempts = 1 then begin
            (* The reader announced the pre-storm epoch; flood limbo so
               the reclaimer finds it lagging and posts. *)
            for _ = 1 to 256 do
              D.start_op worker;
              let h = Memory.Hdr.create () in
              D.on_alloc worker h;
              D.retire worker (reclaimable h);
              D.end_op worker
            done;
            D.flush worker;
            check "stalled announcement pins the storm" true
              (D.unreclaimed t > 0);
            check "reclaimer posted a neutralization" true
              (D.neutralize_posted t > 0)
          end
          else begin
            (* Restarted attempt: the fresh announcement no longer pins
               the storm, so the worker can drain it — while this op is
               still live. *)
            D.flush worker;
            check_int "fresh announcement unpins the storm" 0
              (D.unreclaimed t)
          end;
          (* Attempt 1 aborts at this checkpoint; attempt 2 sails
             through. *)
          ignore (D.protect rdr tok ~slot:0 cell);
          if !attempts = 1 then
            Alcotest.fail "neutralization checkpoint did not fire");
    };
  check_int "two attempts" 2 !attempts;
  check_int "exactly one bracket restart" 1 (D.neutralize_restarts t)

(* [neutralize] only posts into a live operation, and the laggard's
   [end_op] quashes an undelivered post (no stale abort leaks into the
   next operation). *)
let test_debra_neutralize_idle_noop () =
  let module D = Smr.Debra in
  let t = D.create ~config:config_small ~threads:2 ~slots:2 () in
  let a = D.register t ~tid:0 in
  check "no post into an idle thread" false (D.neutralize t ~tid:0);
  (* Post into a live op, then end it without crossing a checkpoint: the
     next op must run unneutralized. *)
  D.start_op a;
  check "posted into a live op" true (D.neutralize t ~tid:0);
  D.end_op a;
  let cell : Memory.Hdr.t option Atomic.t = Atomic.make None in
  let rdr = D.reader a hdr_desc in
  let ran = ref 0 in
  D.with_op a
    {
      Smr.Smr_intf.op0 =
        (fun tok ->
          incr ran;
          ignore (D.protect rdr tok ~slot:0 cell));
    };
  check_int "stale post did not abort the next op" 1 !ran;
  check_int "no restart recorded" 0 (D.neutralize_restarts t)

(* Mask nesting: a post landing inside a masked completion section must
   DEFER (checkpoints pass, the pin stays resolved later), never drop;
   and with nested mask/unmask pairs the section stays non-restartable
   until the OUTERMOST unmask — an inner unmask must not re-arm the
   checkpoint early. *)
let test_debra_mask_nesting_defers () =
  let module D = Smr.Debra in
  let t = D.create ~config:config_small ~threads:2 ~slots:2 () in
  let a = D.register t ~tid:0 in
  let cell : Memory.Hdr.t option Atomic.t = Atomic.make None in
  let rdr = D.reader a hdr_desc in
  let attempts = ref 0 in
  D.with_op a
    {
      Smr.Smr_intf.op0 =
        (fun tok ->
          incr attempts;
          if !attempts = 1 then begin
            D.mask a;
            D.mask a;
            (* Posted while masked: both checkpoints below must pass. *)
            check "posted into the masked op" true (D.neutralize t ~tid:0);
            ignore (D.protect rdr tok ~slot:0 cell);
            D.unmask a;
            (* Inner unmask only — still masked, still deferred. *)
            ignore (D.protect rdr tok ~slot:0 cell);
            D.unmask a;
            (* Outermost unmask: the deferred post must now fire at the
               next checkpoint — deferred, not dropped. *)
            ignore (D.protect rdr tok ~slot:0 cell);
            Alcotest.fail "deferred post did not fire after outer unmask"
          end);
    };
  check_int "deferred abort restarted the bracket once" 2 !attempts;
  check_int "exactly one restart" 1 (D.neutralize_restarts t);
  check_int "post delivered exactly once" 1 (D.neutralize_posted t)

(* Parked-registry delivery: the reclaimer may mark a post delivered
   (releasing the laggard's pin) only when the laggard is parked at a
   checkpointed probe AND unmasked; a parked-but-masked laggard keeps
   its pin.  A crashed laggard is deliverable regardless of mask. *)
let test_debra_parked_delivery () =
  let module D = Smr.Debra in
  let t = D.create ~config:config_small ~threads:2 ~slots:2 () in
  let reader = D.register t ~tid:0 in
  let worker = D.register t ~tid:1 in
  let storm () =
    for _ = 1 to 256 do
      D.start_op worker;
      let h = Memory.Hdr.create () in
      D.on_alloc worker h;
      D.retire worker (reclaimable h);
      D.end_op worker
    done;
    D.flush worker
  in
  D.start_op reader;
  D.mask reader;
  storm ();
  check "running laggard keeps its pin" true (D.unreclaimed t > 0);
  check "reclaimer posted to the laggard" true (D.neutralize_posted t > 0);
  (* Parked at a read probe but masked: NOT deliverable. *)
  Smr.Probe.note_parked 0 Smr.Probe.Read;
  D.flush worker;
  check "parked-but-masked laggard keeps its pin" true (D.unreclaimed t > 0);
  (* Unmasked: the parked laggard's post is delivered and the pin
     releases while it is still asleep. *)
  D.unmask reader;
  D.flush worker;
  check_int "parked unmasked laggard is delivered" 0 (D.unreclaimed t);
  Smr.Probe.note_unparked 0;
  D.end_op reader;
  (* Crashed: deliverable even while masked. *)
  D.start_op reader;
  D.mask reader;
  storm ();
  check "live masked laggard pins again" true (D.unreclaimed t > 0);
  Smr.Probe.note_crashed 0;
  D.flush worker;
  check_int "crashed laggard is delivered despite the mask" 0
    (D.unreclaimed t);
  Smr.Probe.clear_crashed 0

(* Eras: birth/retire stamps must bracket the node's lifetime. *)
let test_era_stamping (module S : Smr.Smr_intf.S) () =
  let mk_hdr th =
    let hdr = Memory.Hdr.create () in
    S.on_alloc th hdr;
    hdr
  in
  let t = S.create ~config:config_small ~threads:1 ~slots:1 () in
  let th = S.register t ~tid:0 in
  S.start_op th;
  let h = mk_hdr th in
  (* Retire enough nodes to advance the era between birth and retire. *)
  for _ = 1 to 64 do
    S.retire th (reclaimable (mk_hdr th))
  done;
  S.retire th (reclaimable h);
  let uses_eras =
    match S.name with
    | "HE" | "IBR" | "HLN" | "EBR" | "DBR" -> true
    | _ -> false
  in
  if uses_eras then
    check "retire era >= birth era" true
      (Memory.Hdr.retire_era h >= Memory.Hdr.birth h);
  S.end_op th;
  S.flush th

(* EBR epoch advance requires all active threads current. *)
let test_ebr_epoch_veto () =
  let module E = Smr.Ebr in
  let t = E.create ~config:config_small ~threads:2 ~slots:1 () in
  let a = E.register t ~tid:0 in
  let b = E.register t ~tid:1 in
  E.start_op a;
  (* a parks at the current epoch *)
  E.start_op b;
  let h = Memory.Hdr.create () in
  E.on_alloc b h;
  E.retire b (reclaimable h);
  E.end_op b;
  for _ = 1 to 10 do
    E.flush b
  done;
  check "node pinned by stalled reservation" false (Memory.Hdr.is_reclaimed h);
  E.end_op a;
  E.flush b;
  check "reclaimed once the epoch can advance" true
    (Memory.Hdr.is_reclaimed h)

(* --- allocation-free operation fast paths --- *)

(* SMR calibration pushed out of the way: no reclamation pass or era
   increment can run inside a measured region. *)
let config_huge =
  Smr.Smr_intf.make_config ~limbo_threshold:1_000_000 ~epoch_freq:max_int
    ~batch_size:1_000_000 ~threads:1 ()

(* Same calibration with the tuner compiled in and active: bounds high
   enough that no pass fires mid-measurement, but the controller (atomic
   threshold read on every retire, observe on every sweep) is live. *)
let config_huge_adaptive =
  Smr.Smr_intf.make_config ~limbo_threshold:1_000_000 ~epoch_freq:max_int
    ~batch_size:1_000_000
    ~adaptive:
      (`On
        {
          Smr.Smr_intf.min_threshold = 1_000_000;
          max_threshold = 4_000_000;
        })
    ~threads:1 ()

(* The HList operations under audit, bound to tid 0 and reached one of two
   ways: the structure functor directly, or the type-erased
   [Harness.Instance] closures every benchmark run and store shard calls
   through. *)
type hlist_ops = {
  search : int -> bool;
  insert : int -> bool;
  delete : int -> bool;
  quiesce : unit -> unit;
}

let functor_ops ~config (module S : Smr.Smr_intf.S) =
  let module L = Scot.Harris_list.Make (S) in
  let smr =
    S.create ~config ~threads:1 ~slots:Scot.Harris_list.slots_needed ()
  in
  let h = L.handle (L.create ~smr ~threads:1 ()) ~tid:0 in
  {
    search = L.search h;
    insert = L.insert h;
    delete = L.delete h;
    quiesce = (fun () -> L.quiesce h);
  }

let instance_ops ~config scheme =
  let inst =
    (Harness.Instance.find_builder_exn "HList").build scheme ~threads:1
      ~config ()
  in
  let tid = 0 in
  {
    search = (fun k -> inst.search ~tid k);
    insert = (fun k -> inst.insert ~tid k);
    delete = (fun k -> inst.delete ~tid k);
    quiesce = (fun () -> inst.quiesce ~tid);
  }

(* The HList operation fast paths must allocate zero minor words once the
   node pool is warm: staged protected loads, canonical link records,
   prebuilt retire records and handle-owned traversal scratch leave nothing
   to cons, and the erased instance closures add nothing on top.  Asserted
   per operation for EBR/HP/HPopt/HE/IBR/DBR; NR's insert legitimately
   allocates (it never reclaims, so the freelist stays empty) and
   Hyaline-1S pays a by-design per-op cons for its batch reference. *)
let test_zero_alloc_ops_with ~config ~path (module S : Smr.Smr_intf.S) () =
  let ops = path ~config (module S : Smr.Smr_intf.S) in
  let keys = 64 in
  let odd = keys / 2 in
  (* Warm-up: prime the freelist, grow the limbo buffers, touch every
     traversal path. *)
  for _ = 1 to 4 do
    for k = 0 to keys - 1 do
      ignore (ops.insert k)
    done;
    for i = 0 to odd - 1 do
      ignore (ops.delete ((2 * i) + 1))
    done;
    for k = 0 to keys - 1 do
      ignore (ops.search k)
    done;
    ops.quiesce ()
  done;
  (* What a back-to-back pair of [Gc.minor_words] calls itself allocates
     (the boxed float results). *)
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let words f n =
    let before = Gc.minor_words () in
    for i = 0 to n - 1 do
      ignore (f i)
    done;
    Gc.minor_words () -. before -. overhead
  in
  (* Full searches across hits, misses and the whole key range, then
     insert + delete cycles over the (absent) odd keys: allocation comes
     from the warm freelist, retire hands over the prebuilt record. *)
  let search_words = words ops.search keys in
  let insert_words = words (fun i -> ops.insert ((2 * i) + 1)) odd in
  let delete_words = words (fun i -> ops.delete ((2 * i) + 1)) odd in
  ops.quiesce ();
  match S.name with
  | "EBR" | "HP" | "HPopt" | "HE" | "IBR" | "DBR" ->
      List.iter
        (fun (op, w) ->
          check
            (Printf.sprintf "%s: %s allocates nothing (got %.2f words)" S.name
               op w)
            true (w <= 0.01))
        [
          ("search", search_words);
          ("insert", insert_words);
          ("delete", delete_words);
        ]
  | _ -> ()

let test_zero_alloc_ops = test_zero_alloc_ops_with ~config:config_huge

let test_zero_alloc_ops_adaptive =
  test_zero_alloc_ops_with ~config:config_huge_adaptive

(* Guarded-read law: the branded bracket path ([with_op] + [protect] +
   [Guard.deref]) observes exactly the physical record installed in the
   field, for any link value (null, marked-null, marked/unmarked node).
   Each update runs in its own balanced bracket (Hyaline rejects
   nesting). *)
let test_guarded_read_law (module S : Smr.Smr_intf.S) =
  let module N = Scot.List_node in
  let module G = Smr.Smr_intf.Guard in
  let qtest =
    QCheck.Test.make ~count:100
      ~name:(Printf.sprintf "guarded read observes installed link (%s)" S.name)
      QCheck.(list (pair (int_bound 15) bool))
      (fun updates ->
        let t = S.create ~threads:1 ~slots:2 () in
        let th = S.register t ~tid:0 in
        let rdr = S.reader th N.desc in
        let nodes =
          Array.init 16 (fun k ->
              let n = N.fresh ~key:k ~next:N.null_link in
              S.on_alloc th n.N.hdr;
              n)
        in
        let field = Atomic.make N.null_link in
        List.for_all
          (fun (i, marked) ->
            let l =
              if i = 0 then if marked then N.marked_null else N.null_link
              else if marked then nodes.(i).N.in_link_marked
              else nodes.(i).N.in_link
            in
            Atomic.set field l;
            let via_guard =
              S.with_op th
                {
                  Smr.Smr_intf.op0 =
                    (fun tok ->
                      G.deref (S.protect rdr tok ~slot:0 field) tok);
                }
            in
            via_guard == l)
          updates)
  in
  QCheck_alcotest.to_alcotest qtest

(* Slot-independence law: within one bracket, protecting the same field
   through two different slots yields the same physical record, and both
   agree with a plain atomic load (single-threaded, so no interleaving). *)
let test_reader_law (module S : Smr.Smr_intf.S) =
  let module N = Scot.List_node in
  let module G = Smr.Smr_intf.Guard in
  let qtest =
    QCheck.Test.make ~count:100
      ~name:(Printf.sprintf "protect is slot-independent (%s)" S.name)
      QCheck.(list (pair (int_bound 15) bool))
      (fun updates ->
        let t = S.create ~threads:1 ~slots:2 () in
        let th = S.register t ~tid:0 in
        let rdr = S.reader th N.desc in
        let nodes =
          Array.init 16 (fun k ->
              let n = N.fresh ~key:k ~next:N.null_link in
              S.on_alloc th n.N.hdr;
              n)
        in
        let field = Atomic.make N.null_link in
        List.for_all
          (fun (i, marked) ->
            let l =
              if i = 0 then if marked then N.marked_null else N.null_link
              else if marked then nodes.(i).N.in_link_marked
              else nodes.(i).N.in_link
            in
            Atomic.set field l;
            S.with_op th
              {
                Smr.Smr_intf.op0 =
                  (fun tok ->
                    let a = G.deref (S.protect rdr tok ~slot:0 field) tok in
                    let b = G.deref (S.protect rdr tok ~slot:1 field) tok in
                    a == l && b == l && Atomic.get field == l);
              })
          updates)
  in
  QCheck_alcotest.to_alcotest qtest

(* The bracket really unpublishes: nothing protected during a *finished*
   operation may survive a reclamation pass.  (This is what licenses the
   tightened flat slack in {!Harness.Chaos.mem_bound}.) *)
let test_end_op_unpublishes (module S : Smr.Smr_intf.S) () =
  if S.name = "NR" then ()
  else begin
    let module N = Scot.List_node in
    let t = S.create ~config:config_small ~threads:2 ~slots:2 () in
    let reader = S.register t ~tid:0 in
    let writer = S.register t ~tid:1 in
    S.start_op writer;
    let node = N.fresh ~key:1 ~next:N.null_link in
    S.on_alloc writer node.N.hdr;
    S.end_op writer;
    let field = Atomic.make node.N.in_link in
    let rdr = S.reader reader N.desc in
    let seen =
      S.with_op reader
        {
          Smr.Smr_intf.op0 =
            (fun tok ->
              Smr.Smr_intf.Guard.deref (S.protect rdr tok ~slot:0 field) tok);
        }
    in
    check "guarded read saw the node" true (seen == node.N.in_link);
    (* The reader is now between operations: its bracket protection must
       be gone, so the writer's first pass reclaims the node. *)
    Atomic.set field N.null_link;
    S.start_op writer;
    S.retire writer (reclaimable node.N.hdr);
    for _ = 1 to 32 do
      let hdr = Memory.Hdr.create () in
      S.on_alloc writer hdr;
      S.retire writer (reclaimable hdr)
    done;
    S.end_op writer;
    S.flush writer;
    check "no protection outlives end_op" true
      (Memory.Hdr.is_reclaimed node.N.hdr)
  end

(* make_config must reject non-positive calibration values with an error
   naming the offending field (a zero [epoch_freq] used to surface as a
   [Division_by_zero] deep inside retire). *)
let test_make_config_validation () =
  let contains msg sub =
    let n = String.length msg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
    go 0
  in
  let expect_invalid field f =
    match f () with
    | (_ : Smr.Smr_intf.config) ->
        Alcotest.failf "make_config accepted non-positive %s" field
    | exception Invalid_argument msg ->
        check (Printf.sprintf "error names %s" field) true (contains msg field)
  in
  expect_invalid "threads" (fun () -> Smr.Smr_intf.make_config ~threads:0 ());
  expect_invalid "limbo_threshold" (fun () ->
      Smr.Smr_intf.make_config ~limbo_threshold:0 ~threads:1 ());
  expect_invalid "epoch_freq" (fun () ->
      Smr.Smr_intf.make_config ~epoch_freq:(-4) ~threads:1 ());
  expect_invalid "batch_size" (fun () ->
      Smr.Smr_intf.make_config ~batch_size:(-1) ~threads:1 ());
  expect_invalid "neutralize_after" (fun () ->
      Smr.Smr_intf.make_config ~neutralize_after:0 ~threads:1 ());
  (* A threshold below the batch size silently under-fills Hyaline
     batches; the rejection must name both fields. *)
  (match
     Smr.Smr_intf.make_config ~limbo_threshold:4 ~batch_size:8 ~threads:1 ()
   with
  | (_ : Smr.Smr_intf.config) ->
      Alcotest.fail "make_config accepted limbo_threshold < batch_size"
  | exception Invalid_argument msg ->
      check "error names limbo_threshold" true (contains msg "limbo_threshold");
      check "error names batch_size" true (contains msg "batch_size"));
  (* An explicit neutralization window wider than the adaptive memory cap
     means DBR's robustness lever could never fire below the cap; the
     rejection must name both sides of the comparison. *)
  (match
     Smr.Smr_intf.make_config
       ~adaptive:(`On { Smr.Smr_intf.min_threshold = 32; max_threshold = 128 })
       ~epoch_freq:16 ~neutralize_after:16 ~threads:1 ()
   with
  | (_ : Smr.Smr_intf.config) ->
      Alcotest.fail
        "make_config accepted neutralize_after beyond the adaptive cap"
  | exception Invalid_argument msg ->
      check "error names neutralize_after" true (contains msg "neutralize_after");
      check "error names max_threshold" true (contains msg "max_threshold"));
  (* The same window is fine when it fits under the cap, and an
     un-chosen default is never second-guessed — including under the
     calibration configs' [epoch_freq = max_int], where any window
     exceeds [max_threshold / epoch_freq = 0]. *)
  ignore
    (Smr.Smr_intf.make_config
       ~adaptive:(`On { Smr.Smr_intf.min_threshold = 32; max_threshold = 128 })
       ~epoch_freq:16 ~neutralize_after:8 ~threads:1 ());
  List.iter
    (fun epoch_freq ->
      let c =
        Smr.Smr_intf.make_config
          ~adaptive:
            (`On { Smr.Smr_intf.min_threshold = 32; max_threshold = 128 })
          ~epoch_freq ~threads:1 ()
      in
      check_int "defaulted neutralize_after bypasses the window check" 4
        c.Smr.Smr_intf.neutralize_after)
    [ 64; max_int ];
  expect_invalid "min_threshold" (fun () ->
      Smr.Smr_intf.make_config
        ~adaptive:
          (`On { Smr.Smr_intf.min_threshold = 0; max_threshold = 128 })
        ~threads:1 ());
  expect_invalid "max_threshold" (fun () ->
      Smr.Smr_intf.make_config
        ~adaptive:
          (`On { Smr.Smr_intf.min_threshold = 256; max_threshold = 128 })
        ~batch_size:16 ~threads:1 ());
  (* Adaptive bounds must respect the batch-size floor too, or the
     controller could tighten Hyaline below a dispatchable batch. *)
  expect_invalid "batch_size" (fun () ->
      Smr.Smr_intf.make_config
        ~adaptive:
          (`On { Smr.Smr_intf.min_threshold = 8; max_threshold = 128 })
        ~batch_size:16 ~threads:1 ());
  let c =
    Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:1 ~batch_size:1
      ~threads:1 ()
  in
  check_int "minimal config accepted" 1 c.Smr.Smr_intf.limbo_threshold

(* Tuner bounds law: whatever sweep/dispatch outcomes the controller
   observes, the effective threshold never leaves [min, max]. *)
let test_tuner_bounds =
  let qtest =
    QCheck.Test.make ~count:200 ~name:"tuner threshold stays within bounds"
      QCheck.(
        triple (int_range 1 64) (int_range 0 64)
          (small_list
             (triple (int_bound 4096) (int_bound 4096) (int_bound 8192))))
      (fun (min_b, extra, trace) ->
        let max_b = min_b + extra in
        let config =
          Smr.Smr_intf.make_config
            ~adaptive:
              (`On
                { Smr.Smr_intf.min_threshold = min_b; max_threshold = max_b })
            ~batch_size:min_b ~threads:1 ()
        in
        let tu = Smr.Tuner.create ~config ~start:min_b in
        List.for_all
          (fun (scanned, freed, gauge) ->
            (* Interleave sweep and dispatch observations; reclaimed can
               never exceed scanned in a real sweep, so clamp it. *)
            Smr.Tuner.observe tu ~scanned ~reclaimed:(min freed scanned)
              ~gauge;
            let a = Smr.Tuner.threshold tu in
            Smr.Tuner.observe_dispatch tu ~gauge:(gauge / 2);
            let b = Smr.Tuner.threshold tu in
            min_b <= a && a <= max_b && min_b <= b && b <= max_b)
          trace)
  in
  QCheck_alcotest.to_alcotest qtest

(* With adaptive off, the threshold is pinned to its start value no
   matter what the controller observes — today's static behaviour, bit
   for bit. *)
let test_tuner_static_off () =
  let config = Smr.Smr_intf.make_config ~threads:1 () in
  let tu = Smr.Tuner.create ~config ~start:128 in
  for i = 1 to 50 do
    Smr.Tuner.observe tu ~scanned:100 ~reclaimed:0 ~gauge:(i * 100)
  done;
  check_int "threshold unchanged with adaptive off" 128
    (Smr.Tuner.threshold tu)

(* The era period is the configured constant even with the tuner on:
   [n] retires through one adaptive handle advance the era exactly
   [n / epoch_freq] times, whether every sweep frees everything (no other
   handle) or a second handle's reservation pins the backlog (the
   low-hit-rate regime the tuner widens the threshold in).  The memory
   bounds ({!Harness.Chaos.mem_bound}, DBR's window check in
   [make_config]) are computed from that constant. *)
let test_era_period_constant (module S : Smr.Smr_intf.S) ~pinned () =
  let ef = 8 and n = 512 in
  let config =
    Smr.Smr_intf.make_config ~limbo_threshold:4 ~epoch_freq:ef ~batch_size:4
      ~adaptive:(`On { Smr.Smr_intf.min_threshold = 4; max_threshold = 64 })
      ~threads:2 ()
  in
  let t = S.create ~config ~threads:2 ~slots:1 () in
  let retirer = S.register t ~tid:0 in
  let era () = List.assoc "era" (S.stats t) in
  let mk_hdr () =
    let hdr = Memory.Hdr.create () in
    S.on_alloc retirer hdr;
    hdr
  in
  let retire_n () =
    let start = era () in
    for _ = 1 to n do
      S.retire retirer (reclaimable (mk_hdr ()))
    done;
    check_int
      (Printf.sprintf "%s era after %d retires (pinned=%b)" S.name n pinned)
      (start + (n / ef))
      (era ())
  in
  if pinned then begin
    let reader = S.register t ~tid:1 in
    let cell = Atomic.make (Some (mk_hdr ())) in
    let rdr = S.reader reader hdr_desc in
    S.with_op reader
      {
        Smr.Smr_intf.op0 =
          (fun tok ->
            ignore (S.protect rdr tok ~slot:0 cell);
            retire_n ());
      }
  end
  else retire_n ();
  S.flush retirer

(* Registry sanity. *)
let test_registry () =
  check "the paper's seven plus DBR" true
    (Smr.Registry.names
    = [ "NR"; "EBR"; "HP"; "HPopt"; "HE"; "IBR"; "HLN"; "DBR" ]);
  check "find is case-insensitive" true
    (match Smr.Registry.find "hpopt" with Some _ -> true | None -> false);
  check "debra is registered" true
    (match Smr.Registry.find "dbr" with Some _ -> true | None -> false);
  (match Smr.Registry.find_exn "nope" with
  | _ -> Alcotest.fail "unknown scheme accepted"
  | exception Invalid_argument _ -> ());
  check_int "six robust schemes" 6
    (List.length Smr.Registry.robust_schemes);
  check "DBR is the one neutralizing scheme" true
    (List.for_all
       (fun (module S : Smr.Smr_intf.S) -> S.name = "DBR")
       Smr.Registry.neutralizing_schemes
    && List.length Smr.Registry.neutralizing_schemes = 1);
  (* The capability matrix: NR claims nothing, EBR is recoverable but not
     robust, DBR is the only neutralizer, everything but NR is adaptive. *)
  List.iter
    (fun (module S : Smr.Smr_intf.S) ->
      let caps = Smr.Registry.capabilities (module S : Smr.Smr_intf.S) in
      check
        (Printf.sprintf "%s capabilities self-consistent" S.name)
        true
        (caps = S.capabilities
        && (caps.Smr.Smr_intf.neutralizing <= caps.Smr.Smr_intf.robust)
        && (caps.Smr.Smr_intf.robust <= caps.Smr.Smr_intf.recoverable)))
    Smr.Registry.all

let per_scheme name f =
  List.map
    (fun (module S : Smr.Smr_intf.S) ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name S.name) `Quick
        (f (module S : Smr.Smr_intf.S)))
    Smr.Registry.all

let () =
  Alcotest.run "smr"
    [
      ("reclaim-unprotected", per_scheme "reclaim" test_reclaims_unprotected);
      ( "protection",
        per_scheme "protection blocks reclaim" test_protection_blocks_reclaim
      );
      ("dup", per_scheme "dup preserves protection" test_dup_preserves_protection);
      ( "robustness",
        per_scheme "stalled thread bound" test_stalled_thread_bound );
      ( "scheme-specific",
        [
          Alcotest.test_case "hyaline any-thread reclamation" `Quick
            test_hyaline_any_thread_reclamation;
          Alcotest.test_case "ebr epoch veto" `Quick test_ebr_epoch_veto;
          Alcotest.test_case "dbr neutralization restarts the bracket" `Quick
            test_debra_neutralization_restart;
          Alcotest.test_case "dbr neutralize of an idle thread is a no-op"
            `Quick test_debra_neutralize_idle_noop;
          Alcotest.test_case "dbr mask nesting defers a post" `Quick
            test_debra_mask_nesting_defers;
          Alcotest.test_case "dbr parked/crashed laggard delivery" `Quick
            test_debra_parked_delivery;
        ] );
      ("eras", per_scheme "era stamping" test_era_stamping);
      ( "era-period",
        List.concat_map
          (fun name ->
            let s = Smr.Registry.find_exn name in
            List.map
              (fun pinned ->
                Alcotest.test_case
                  (Printf.sprintf "%s era period is config.epoch_freq%s" name
                     (if pinned then " under a reservation" else ""))
                  `Quick
                  (test_era_period_constant s ~pinned))
              [ false; true ])
          [ "HE"; "IBR"; "HLN" ] );
      ( "op-allocs",
        per_scheme "zero-alloc HList ops"
          (test_zero_alloc_ops ~path:functor_ops)
        @ per_scheme "zero-alloc HList ops via Instance"
            (test_zero_alloc_ops ~path:instance_ops) );
      ( "op-allocs-adaptive",
        per_scheme "zero-alloc HList ops with tuner on"
          (test_zero_alloc_ops_adaptive ~path:functor_ops)
        @ per_scheme "zero-alloc HList ops via Instance with tuner on"
            (test_zero_alloc_ops_adaptive ~path:instance_ops) );
      ("reader-law", List.map test_reader_law Smr.Registry.all);
      ("guard-law", List.map test_guarded_read_law Smr.Registry.all);
      ( "end-op-unpublishes",
        per_scheme "protection dies with the bracket" test_end_op_unpublishes
      );
      ( "config",
        [
          Alcotest.test_case "make_config validation" `Quick
            test_make_config_validation;
        ] );
      ( "tuner",
        [
          test_tuner_bounds;
          Alcotest.test_case "static when adaptive off" `Quick
            test_tuner_static_off;
        ] );
      ("registry", [ Alcotest.test_case "registry" `Quick test_registry ]);
    ]
