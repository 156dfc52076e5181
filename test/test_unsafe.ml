(* The paper's Figure 2: unsafe optimistic traversal under HP.

   Two levels of evidence:
   1. A deterministic single-domain replay of the exact scenario at the SMR
      level (threads interleaved by hand): the pointer from a logically
      deleted node to its successor stays intact after the chain is
      physically unlinked, so the HP [protect] succeeds on a freed node and
      the subsequent dereference faults.  The SCOT validation (re-checking
      the last safe link) detects the unlink instead.
   2. Harris' list without SCOT (HListUnsafe: [Harris_list] with its
      validation off) under concurrent load: it must fault under the
      robust schemes and must NOT fault under EBR/NR/DBR (Table 1's first
      row). *)

let check = Alcotest.(check bool)

let aggressive =
  Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:2 ~batch_size:1
    ~threads:1 ()

let hdr_desc =
  { Smr.Smr_intf.is_null = Option.is_none; hdr = Option.get }

(* --- deterministic replay (Figure 2) --- *)

let test_fig2_deterministic_fault () =
  let module S = Smr.Hp in
  let t = S.create ~config:aggressive ~threads:2 ~slots:4 () in
  let reader = S.register t ~tid:0 in
  let writer = S.register t ~tid:1 in
  (* List shape: head -> N1 -> N2 -> N3 -> N4 (headers only; links are
     explicit cells as in the paper's figure). *)
  let n1 = Memory.Hdr.create ()
  and n2 = Memory.Hdr.create ()
  and n3 = Memory.Hdr.create ()
  and n4 = Memory.Hdr.create () in
  let link_head = Atomic.make (Some n1) in
  let link1 = Atomic.make (Some n2) in
  let link2 = Atomic.make (Some n3) in
  let link3 = Atomic.make (Some n4) in
  ignore link3;
  let rdr = S.reader reader hdr_desc in
  S.start_op writer;
  (* The whole interleaving runs inside the reader's bracket: thread 1
     (reader) walks to N2 and protects it while N1 -> N2 is intact. *)
  S.with_op reader
    {
      Smr.Smr_intf.op0 =
        (fun tok ->
          let g2 = S.protect rdr tok ~slot:0 link1 in
          let seen_n2 = Smr.Smr_intf.Guard.deref g2 tok in
          check "reader reached N2" true
            (match seen_n2 with Some h -> h == n2 | None -> false);
          (* Threads 2/3 (writer) logically delete N2 and N3, then unlink
             the whole chain with one CAS on N1's link and retire both. *)
          Atomic.set link_head (Some n4);
          S.retire writer
            { hdr = n2; free = (fun _ -> Memory.Hdr.mark_reclaimed n2) };
          S.retire writer
            { hdr = n3; free = (fun _ -> Memory.Hdr.mark_reclaimed n3) };
          S.flush writer;
          check "N2 survives (reader holds a hazard)" false
            (Memory.Hdr.is_reclaimed n2);
          check "N3 is reclaimed (nobody protects it)" true
            (Memory.Hdr.is_reclaimed n3);
          (* Reader continues optimistically: protect N3 through N2's link
             — the link never changed, so plain HP validation SUCCEEDS on
             freed memory. *)
          let seen_n3 =
            Smr.Smr_intf.Guard.deref (S.protect rdr tok ~slot:1 link2) tok
          in
          check "protect erroneously succeeds" true
            (match seen_n3 with Some h -> h == n3 | None -> false);
          (* ... and the dereference is the simulated SEGFAULT of Fig 2. *)
          match Option.iter Memory.Hdr.check seen_n3 with
          | () -> Alcotest.fail "expected Use_after_free on N3"
          | exception Memory.Fault.Use_after_free _ -> ());
    };
  S.end_op writer

let test_fig2_scot_validation_detects () =
  let module S = Smr.Hp in
  let t = S.create ~config:aggressive ~threads:2 ~slots:4 () in
  let reader = S.register t ~tid:0 in
  let writer = S.register t ~tid:1 in
  let n2 = Memory.Hdr.create () and n3 = Memory.Hdr.create () in
  let n4 = Memory.Hdr.create () in
  let link_head = Atomic.make (Some n2) in
  let link2 = Atomic.make (Some n3) in
  let rdr = S.reader reader hdr_desc in
  S.start_op writer;
  S.with_op reader
    {
      Smr.Smr_intf.op0 =
        (fun tok ->
          (* SCOT: entering the dangerous zone, remember the last safe
             link's value (prev_next = N2) and protect the first unsafe
             node. *)
          let prev_next =
            Smr.Smr_intf.Guard.deref
              (S.protect rdr tok ~slot:3 link_head)
              tok
          in
          (* Writer prunes the chain. *)
          Atomic.set link_head (Some n4);
          S.retire writer
            { hdr = n2; free = (fun _ -> Memory.Hdr.mark_reclaimed n2) };
          S.retire writer
            { hdr = n3; free = (fun _ -> Memory.Hdr.mark_reclaimed n3) };
          S.flush writer;
          (* Reader protects N3 (succeeds, same as above)... *)
          ignore (S.protect rdr tok ~slot:1 link2);
          (* ...but the SCOT check — "does the last safe node still point
             to the first unsafe node?" — fails, forcing a restart BEFORE
             any dereference. *)
          check "SCOT validation detects the unlink" false
            (Atomic.get link_head == prev_next));
    };
  S.end_op writer

(* --- the real unsafe list under load --- *)

let range = 16

let run_unsafe name ~seconds ~check =
  Harness.Runner.run
    ~builder:(Harness.Instance.find_builder_exn "HListUnsafe")
    ~scheme:(Smr.Registry.find_exn name) ~threads:8 ~range
    ~mix:(Harness.Workload.mix ~read:20 ~insert:40 ~delete:40)
    ~duration:seconds ~config:aggressive ~check ()

(* Table 1's X cells: the robust schemes reclaim what an unchecked
   traversal is still walking.  The fault is a race; retry a few short
   rounds until it fires (it fires within the first round in practice). *)
let test_faults_under name () =
  let rec attempt n =
    if n = 0 then Alcotest.failf "unsafe list never faulted under %s" name
    else
      let r = run_unsafe name ~seconds:1.0 ~check:false in
      if r.faults = 0 then attempt (n - 1)
  in
  attempt 10

(* Table 1's V cells.  Under EBR and NR nothing an operation can reach is
   reclaimed during it.  Under DBR, with no adversarial stall there is
   nothing to neutralize, and a live operation's announcement pins
   everything retired during it (posted-but-unacknowledged cells still
   pin), so even the unchecked list cannot fault — DBR buys robustness
   through restarts, not by racing reclamation against running readers.
   Being safe there, the list must also be correct: the run checks the
   key order, and the final size must be the prefill plus the successful
   inserts minus the successful deletes. *)
let test_safe_under name ~seconds () =
  let r = run_unsafe name ~seconds ~check:true in
  Alcotest.(check int) ("no faults under " ^ name) 0 r.faults;
  let hits op =
    List.fold_left
      (fun acc (s : Harness.Metrics.op_stats) ->
        if s.op = op then acc + s.hits else acc)
      0 r.op_stats
  in
  Alcotest.(check int)
    "final size = prefill + inserts - deletes"
    ((range / 2) + hits Harness.Metrics.Insert - hits Harness.Metrics.Delete)
    r.final_size

let () =
  Alcotest.run "unsafe_traversals"
    [
      ( "figure-2 deterministic",
        [
          Alcotest.test_case "plain HP faults" `Quick
            test_fig2_deterministic_fault;
          Alcotest.test_case "SCOT validation detects" `Quick
            test_fig2_scot_validation_detects;
        ] );
      ( "unsafe list under load",
        List.map
          (fun name ->
            Alcotest.test_case ("faults under " ^ name) `Slow
              (test_faults_under name))
          [ "HP"; "HPopt"; "HE"; "IBR"; "HLN" ]
        @ List.map
            (fun (name, seconds) ->
              Alcotest.test_case ("safe under " ^ name) `Slow
                (test_safe_under name ~seconds))
            [ ("EBR", 1.0); ("NR", 0.5); ("DBR", 1.0) ] );
    ]
