(* The robustness story that motivates the paper (§1, §2.2.1): when one
   thread stalls inside an operation, EBR's memory usage grows without
   bound, while robust schemes (HP/HPopt/HE/IBR/Hyaline-1S) stay bounded.
   SCOT is what lets Harris' list run on the robust schemes at all.

   This drives the same experiment as the `scotbench chaos` matrix but
   prints a narrated, growing timeline.  The stall uses the fault-control API: the
   victim domain runs a *real* traversal and parks at the "read" injection
   point with its protection published, then gets resumed at the end —
   showing that the backlog drains once the stall clears.

   Run with:  dune exec examples/stalled_thread.exe *)

let () =
  let threads = 4 and range = 512 in
  let checkpoints = 4 and interval = 0.5 in
  Printf.printf
    "One domain parks mid-traversal (fault point \"read\"); %d domains churn \
     inserts/deletes on a %d-key Harris list.\nUnreclaimed-object counts \
     every %.1fs, then after resume:\n\n%!"
    (threads - 1) range interval;
  Printf.printf "%-6s %-12s %s  %s\n%!" "scheme" "class"
    (String.concat "  "
       (List.init checkpoints (fun i ->
            Printf.sprintf "t=%.1fs" (float_of_int (i + 1) *. interval))))
    "resumed";
  List.iter
    (fun (module S : Smr.Smr_intf.S) ->
      let builder = Harness.Instance.find_builder_exn "HList" in
      let inst = builder.Harness.Instance.build (module S) ~threads () in
      Array.iter
        (fun k -> ignore (inst.Harness.Instance.insert ~tid:0 k))
        (Harness.Workload.prefill_keys ~range ~seed:42);
      let fault = inst.Harness.Instance.fault in
      fault.stall ~tid:(threads - 1) ~point:"read";
      let stop = Atomic.make false in
      let worker tid () =
        let rng = Harness.Workload.Rng.create ~seed:(tid + 1) in
        while not (Atomic.get stop) do
          let k = Harness.Workload.Rng.int rng range in
          if Harness.Workload.Rng.int rng 2 = 0 then
            ignore (inst.Harness.Instance.insert ~tid k)
          else ignore (inst.Harness.Instance.delete ~tid k)
        done
      in
      let doms =
        List.init (threads - 1) (fun tid -> Domain.spawn (worker tid))
      in
      let counts =
        List.init checkpoints (fun _ ->
            ignore (Unix.select [] [] [] interval);
            inst.Harness.Instance.unreclaimed ())
      in
      Atomic.set stop true;
      List.iter Domain.join doms;
      (* Release the stalled domain: its traversal completes (end_op runs)
         and a quiesce drains whatever it was pinning. *)
      fault.resume ~tid:(threads - 1);
      fault.shutdown ();
      for tid = 0 to threads - 1 do
        inst.Harness.Instance.quiesce ~tid
      done;
      let after = inst.Harness.Instance.unreclaimed () in
      Printf.printf "%-6s %-12s %s  %d\n%!" S.name
        (if S.capabilities.Smr.Smr_intf.robust then "robust"
         else "NOT robust")
        (String.concat "  " (List.map string_of_int counts))
        after)
    Smr.Registry.all;
  Printf.printf
    "\nExpected shape: EBR (and NR) grow steadily; robust schemes plateau \
     at a small bound (Theorem 1).  After resume, every scheme except NR \
     drains its backlog.\n%!"
