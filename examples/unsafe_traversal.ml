(* Figure 2, live: Harris' original list (optimistic traversals, no SCOT)
   crashes under Hazard Pointers, while the SCOT version of the very same
   list runs clean under an identical workload.  Both are
   [Scot.Harris_list]: HListUnsafe is built with its dangerous-zone
   validation off ([~validation:`Off]), HList with it on.  In C the crash is a
   SEGFAULT; here it is the simulated use-after-free fault raised by the
   poisoned node header.

   Run with:  dune exec examples/unsafe_traversal.exe *)

let aggressive =
  (* Reclaim as eagerly as possible to widen the fault window. *)
  Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:2 ~batch_size:1
    ~threads:1 ()

let run structure scheme =
  let r =
    Harness.Runner.run
      ~builder:(Harness.Instance.find_builder_exn structure)
      ~scheme ~threads:8 ~range:16
      ~mix:(Harness.Workload.mix ~read:20 ~insert:40 ~delete:40)
      ~duration:1.0 ~config:aggressive ~check:false ()
  in
  Printf.printf "  %-12s under %-5s: %8d ops, faults = %d%s\n%!" structure
    (let (module S : Smr.Smr_intf.S) = scheme in
     S.name)
    r.ops r.faults
    (if r.faults > 0 then "   <-- simulated SEGFAULT (Figure 2)" else "")

let () =
  let hp = Smr.Registry.find_exn "HP" in
  let ebr = Smr.Registry.find_exn "EBR" in
  Printf.printf
    "Harris' list WITHOUT SCOT (original optimistic traversal):\n%!";
  run "HListUnsafe" hp;
  run "HListUnsafe" ebr;
  Printf.printf "\nThe same list WITH SCOT:\n%!";
  run "HList" hp;
  run "HList" ebr;
  Printf.printf
    "\nExpected: the unsafe list faults under HP but not under EBR; the \
     SCOT list never faults.\n%!"
