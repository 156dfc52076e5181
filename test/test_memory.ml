(* Unit and property tests for the simulated manual-memory substrate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Hdr lifecycle --- *)

let test_hdr_lifecycle () =
  let h = Memory.Hdr.create () in
  check "fresh header is live" true (Memory.Hdr.state h = Memory.Hdr.Live);
  check_int "fresh serial" 0 (Memory.Hdr.serial h);
  Memory.Hdr.check h;
  (* live: no fault *)
  Memory.Hdr.mark_retired h;
  check "retired" true (Memory.Hdr.state h = Memory.Hdr.Retired);
  Memory.Hdr.check h;
  (* retired but not reclaimed: dereference still legal *)
  Memory.Hdr.mark_reclaimed h;
  check "reclaimed" true (Memory.Hdr.state h = Memory.Hdr.Reclaimed);
  check_int "serial bumped on reclaim" 1 (Memory.Hdr.serial h);
  (match Memory.Hdr.check h with
  | () -> Alcotest.fail "expected Use_after_free"
  | exception Memory.Fault.Use_after_free _ -> ());
  Memory.Hdr.mark_live_for_reuse h;
  check "live again" true (Memory.Hdr.state h = Memory.Hdr.Live);
  Memory.Hdr.check h

let test_hdr_double_retire () =
  let h = Memory.Hdr.create () in
  Memory.Hdr.mark_retired h;
  match Memory.Hdr.mark_retired h with
  | () -> Alcotest.fail "double retire must be rejected"
  | exception Invalid_argument _ -> ()

let test_hdr_double_free () =
  let h = Memory.Hdr.create () in
  Memory.Hdr.mark_retired h;
  Memory.Hdr.mark_reclaimed h;
  match Memory.Hdr.mark_reclaimed h with
  | () -> Alcotest.fail "double free must be rejected"
  | exception Invalid_argument _ -> ()

let test_fault_toggle () =
  let h = Memory.Hdr.create () in
  Memory.Hdr.mark_retired h;
  Memory.Hdr.mark_reclaimed h;
  Memory.Fault.with_checking false (fun () -> Memory.Hdr.check h);
  (* checking disabled: no fault *)
  check "flag restored" true !Memory.Fault.checked

let test_hdr_eras () =
  let h = Memory.Hdr.create () in
  Memory.Hdr.set_birth h 42;
  Memory.Hdr.set_retire_era h 99;
  check_int "birth" 42 (Memory.Hdr.birth h);
  check_int "retire era" 99 (Memory.Hdr.retire_era h)

(* Two heap blocks: the record (3 fields + header) and the one atomic
   word (1 field + header). *)
let test_hdr_size () =
  check_int "reachable words" 6
    (Obj.reachable_words (Obj.repr (Memory.Hdr.create ())))

let test_hdr_serial_wide () =
  let h = Memory.Hdr.create () in
  for _ = 1 to 100_000 do
    Memory.Hdr.mark_retired h;
    Memory.Hdr.mark_reclaimed h;
    Memory.Hdr.mark_live_for_reuse h
  done;
  check_int "serial" 100_000 (Memory.Hdr.serial h);
  check "still decodes live" true (Memory.Hdr.state h = Memory.Hdr.Live);
  Memory.Hdr.check h

(* Two domains retire the same headers: the state CAS lets exactly one
   call per header through and rejects the other as a double retire.  The
   domains meet at a barrier before each block of headers, so they walk
   every block side by side and really race on its headers. *)
let test_hdr_retire_race () =
  let n = 10_000 and block = 50 in
  let hs = Array.init n (fun _ -> Memory.Hdr.create ()) in
  let arrived = Atomic.make 0 in
  let retirer () =
    let won = Array.make n false in
    for b = 0 to (n / block) - 1 do
      Atomic.incr arrived;
      while Atomic.get arrived < 2 * (b + 1) do
        Domain.cpu_relax ()
      done;
      for i = b * block to ((b + 1) * block) - 1 do
        match Memory.Hdr.mark_retired hs.(i) with
        | () -> won.(i) <- true
        | exception Invalid_argument _ -> ()
      done
    done;
    won
  in
  let d1 = Domain.spawn retirer and d2 = Domain.spawn retirer in
  let w1 = Domain.join d1 and w2 = Domain.join d2 in
  for i = 0 to n - 1 do
    if w1.(i) = w2.(i) then
      Alcotest.failf "header %d: %s" i
        (if w1.(i) then "both retires succeeded" else "no retire succeeded")
  done;
  Array.iter
    (fun h -> check "retired" true (Memory.Hdr.state h = Memory.Hdr.Retired))
    hs

(* The plain birth field is published the way a structure publishes a node:
   written first, then made reachable by an atomic store.  A domain that
   loads the node through that atomic reads the birth written before it. *)
let test_hdr_birth_publication () =
  let rounds = 10_000 in
  let cell = Atomic.make None in
  let reader =
    Domain.spawn (fun () ->
        let bad = ref 0 and seen = ref 0 in
        while !seen < rounds do
          match Atomic.get cell with
          | Some (i, h) when i > !seen ->
              if Memory.Hdr.birth h <> i then incr bad;
              seen := i
          | _ -> Domain.cpu_relax ()
        done;
        !bad)
  in
  for i = 1 to rounds do
    let h = Memory.Hdr.create () in
    Memory.Hdr.set_birth h i;
    Atomic.set cell (Some (i, h))
  done;
  check_int "births read back" 0 (Domain.join reader)

(* --- Pool recycling --- *)

module IntNode = struct
  type t = { hdr : Memory.Hdr.t; mutable v : int }

  let hdr n = n.hdr
end

module P = Memory.Pool.Make (IntNode)

let test_pool_recycles () =
  let pool = P.create ~threads:1 () in
  let n1 = P.alloc pool ~tid:0 (fun () -> { IntNode.hdr = Memory.Hdr.create (); v = 1 }) in
  Memory.Hdr.mark_retired (IntNode.hdr n1);
  P.free pool ~tid:0 n1;
  check "freed node is poisoned" true (Memory.Hdr.is_reclaimed n1.IntNode.hdr);
  let n2 = P.alloc pool ~tid:0 (fun () -> { IntNode.hdr = Memory.Hdr.create (); v = 2 }) in
  check "recycled the same node" true (n1 == n2);
  check_int "serial bumped across recycle" 1 (Memory.Hdr.serial n2.IntNode.hdr);
  check_int "fresh count" 1 (P.allocated_fresh pool);
  check_int "recycled count" 1 (P.recycled pool);
  check_int "freed count" 1 (P.freed pool)

let test_pool_no_recycle () =
  let pool = P.create ~recycle:false ~threads:1 () in
  let n1 = P.alloc pool ~tid:0 (fun () -> { IntNode.hdr = Memory.Hdr.create (); v = 1 }) in
  Memory.Hdr.mark_retired (IntNode.hdr n1);
  P.free pool ~tid:0 n1;
  let n2 = P.alloc pool ~tid:0 (fun () -> { IntNode.hdr = Memory.Hdr.create (); v = 2 }) in
  check "no recycling" true (n1 != n2);
  check_int "two fresh allocs" 2 (P.allocated_fresh pool)

let test_pool_per_thread_freelists () =
  let pool = P.create ~threads:2 () in
  let n1 = P.alloc pool ~tid:0 (fun () -> { IntNode.hdr = Memory.Hdr.create (); v = 1 }) in
  Memory.Hdr.mark_retired (IntNode.hdr n1);
  P.free pool ~tid:1 n1;
  (* freed into thread 1's list *)
  let n2 = P.alloc pool ~tid:0 (fun () -> { IntNode.hdr = Memory.Hdr.create (); v = 2 }) in
  check "thread 0 does not see thread 1's freelist" true (n1 != n2);
  let n3 = P.alloc pool ~tid:1 (fun () -> { IntNode.hdr = Memory.Hdr.create (); v = 3 }) in
  check "thread 1 recycles its own free" true (n1 == n3)

(* --- Tcounter --- *)

let test_tcounter_basic () =
  let c = Memory.Tcounter.create ~threads:3 in
  Memory.Tcounter.incr c ~tid:0;
  Memory.Tcounter.incr c ~tid:1;
  Memory.Tcounter.incr c ~tid:1;
  Memory.Tcounter.decr c ~tid:2;
  check_int "total" 2 (Memory.Tcounter.total c);
  Memory.Tcounter.add c ~tid:0 10;
  check_int "after add" 12 (Memory.Tcounter.total c);
  check_int "per-thread get" 11 (Memory.Tcounter.get c ~tid:0);
  Memory.Tcounter.reset c;
  check_int "after reset" 0 (Memory.Tcounter.total c)

let test_tcounter_bounds () =
  let c = Memory.Tcounter.create ~threads:1 in
  (match Memory.Tcounter.incr c ~tid:1 with
  | () -> Alcotest.fail "out-of-range tid accepted"
  | exception Invalid_argument _ -> ());
  match Memory.Tcounter.create ~threads:0 with
  | _ -> Alcotest.fail "zero threads accepted"
  | exception Invalid_argument _ -> ()

let test_tcounter_concurrent () =
  let c = Memory.Tcounter.create ~threads:4 in
  let doms =
    List.init 4 (fun tid ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Memory.Tcounter.incr c ~tid
            done))
  in
  List.iter Domain.join doms;
  check_int "concurrent total" 40_000 (Memory.Tcounter.total c)

(* --- Properties --- *)

let prop_pool_alloc_free_balance =
  QCheck.Test.make ~count:200
    ~name:"pool: live_estimate = allocs - frees for any alloc/free trace"
    QCheck.(list bool)
    (fun trace ->
      let pool = P.create ~threads:1 () in
      let live = ref [] in
      let allocs = ref 0 and frees = ref 0 in
      List.iter
        (fun do_alloc ->
          if do_alloc || !live = [] then begin
            let n =
              P.alloc pool ~tid:0 (fun () ->
                  { IntNode.hdr = Memory.Hdr.create (); v = 0 })
            in
            incr allocs;
            live := n :: !live
          end
          else
            match !live with
            | n :: rest ->
                Memory.Hdr.mark_retired (IntNode.hdr n);
                P.free pool ~tid:0 n;
                incr frees;
                live := rest
            | [] -> ())
        trace;
      P.live_estimate pool = !allocs - !frees)

let prop_serial_monotonic =
  QCheck.Test.make ~count:100 ~name:"hdr: serial grows by 1 per recycle"
    QCheck.(int_bound 20)
    (fun n ->
      let h = Memory.Hdr.create () in
      for _ = 1 to n do
        Memory.Hdr.mark_retired h;
        Memory.Hdr.mark_reclaimed h;
        Memory.Hdr.mark_live_for_reuse h
      done;
      Memory.Hdr.serial h = n)

let () =
  Alcotest.run "memory"
    [
      ( "hdr",
        [
          Alcotest.test_case "lifecycle" `Quick test_hdr_lifecycle;
          Alcotest.test_case "double retire rejected" `Quick
            test_hdr_double_retire;
          Alcotest.test_case "double free rejected" `Quick test_hdr_double_free;
          Alcotest.test_case "fault toggle" `Quick test_fault_toggle;
          Alcotest.test_case "eras" `Quick test_hdr_eras;
          Alcotest.test_case "two-block size" `Quick test_hdr_size;
          Alcotest.test_case "serial over 100k recycles" `Quick
            test_hdr_serial_wide;
          Alcotest.test_case "racing retires: one wins" `Quick
            test_hdr_retire_race;
          Alcotest.test_case "birth published by atomic store" `Quick
            test_hdr_birth_publication;
        ] );
      ( "pool",
        [
          Alcotest.test_case "recycles" `Quick test_pool_recycles;
          Alcotest.test_case "no-recycle mode" `Quick test_pool_no_recycle;
          Alcotest.test_case "per-thread freelists" `Quick
            test_pool_per_thread_freelists;
        ] );
      ( "tcounter",
        [
          Alcotest.test_case "basic" `Quick test_tcounter_basic;
          Alcotest.test_case "bounds" `Quick test_tcounter_bounds;
          Alcotest.test_case "concurrent" `Quick test_tcounter_concurrent;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pool_alloc_free_balance;
          QCheck_alcotest.to_alcotest prop_serial_monotonic;
        ] );
    ]
