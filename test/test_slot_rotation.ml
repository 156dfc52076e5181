(* Hazard-slot rotation in the SCOT lists ([Harris_list] and
   [Harris_michael_list]).

   The traversals rename their next/curr/prev slots at every hop instead of
   copying protections between them with [dup].  Two properties pin that
   down:

   - exact counts: on a quiescent list a search publishes once per hop and
     makes no [dup] at all, except one on entering a marked chain (the
     first unsafe node's slot);
   - safety under an adversary: before a protected load of the traversal,
     a second handle deletes the nodes the traversal is standing on or has
     just passed, forces a reclamation pass and inserts other keys, which
     reuse the reclaimed nodes elsewhere in the list.  A slot overwritten
     while its node is still prev would let that node be reclaimed and
     reused under the traversal: a wrong answer or a broken list. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {2 The instrumented scheme}

   Counts [protect] and [dup] calls and runs [!before_protect] ahead of
   every protect, passing it the key of the node about to be protected
   ([max_int] for the tail or a null link).  Keys are recovered from node
   headers: [on_alloc] records the header of every node an insert
   allocates under the key in [!allocating].  The hook is not re-entered:
   the protects of the operations it runs itself go straight to the
   scheme. *)

let protects = ref 0
let dups = ref 0
let before_protect = ref (fun (_ : int) -> ())
let in_hook = ref false
let allocating = ref 0
let hdr_keys : (Memory.Hdr.t * int) list ref = ref []

let key_of_hdr h =
  match List.find_opt (fun (h', _) -> h' == h) !hdr_keys with
  | Some (_, k) -> k
  | None -> max_int

let reset_counts () =
  protects := 0;
  dups := 0

module Instrumented (S : Smr.Smr_intf.S) : Smr.Smr_intf.S = struct
  include (
    S :
      Smr.Smr_intf.S
        with type t = S.t
         and type th = S.th
         and type 'v reader := 'v S.reader)

  type 'v reader = { rd : 'v S.reader; desc : 'v Smr.Smr_intf.desc }

  let reader th desc = { rd = S.reader th desc; desc }

  let protect r tok ~slot field =
    incr protects;
    if not !in_hook then begin
      let v = Atomic.get field in
      let next =
        if r.desc.is_null v then max_int else key_of_hdr (r.desc.hdr v)
      in
      in_hook := true;
      Fun.protect
        ~finally:(fun () -> in_hook := false)
        (fun () -> !before_protect next)
    end;
    S.protect r.rd tok ~slot field

  let dup th ~src ~dst =
    incr dups;
    S.dup th ~src ~dst

  let on_alloc th h =
    hdr_keys :=
      (h, !allocating) :: List.filter (fun (h', _) -> h' != h) !hdr_keys;
    S.on_alloc th h
end

(* Run [f] with [hook] armed before each of its protects; [hook] gets the
   1-based index of the protect within [f] and the key being protected. *)
let hooked hook f =
  let base = !protects in
  before_protect := (fun next -> hook (!protects - base) next);
  Fun.protect ~finally:(fun () -> before_protect := ignore) f

(* Inserts go through here so [on_alloc] can label the node. *)
let labelled insert h k =
  allocating := k;
  insert h k

(* {2 Exact counts under HP} *)

module CHp = Instrumented (Smr.Hp)
module HL = Scot.Harris_list.Make (CHp)
module HM = Scot.Harris_michael_list.Make (CHp)

let keys = List.init 10 (fun i -> 10 * (i + 1)) (* 10, 20, .., 100 *)

let hl_list () =
  let smr = CHp.create ~threads:2 ~slots:Scot.Harris_list.slots_needed () in
  let t = HL.create ~smr ~threads:2 () in
  let a = HL.handle t ~tid:0 and b = HL.handle t ~tid:1 in
  List.iter (fun k -> assert (HL.insert a k)) keys;
  (t, a, b)

(* A search for the largest key reads the head link and then one link per
   node: [n + 1] protects, no dup. *)
let test_hl_counts () =
  let _, a, _ = hl_list () in
  reset_counts ();
  check "found" true (HL.search a 100);
  check_int "one protect per hop" 11 !protects;
  check_int "no dup in the safe zone" 0 !dups;
  reset_counts ();
  check "insert at the end" true (HL.insert a 105);
  check_int "insert: no dup" 0 !dups

let test_hm_counts () =
  let smr =
    CHp.create ~threads:1 ~slots:Scot.Harris_michael_list.slots_needed ()
  in
  let t = HM.create ~smr ~threads:1 () in
  let a = HM.handle t ~tid:0 in
  List.iter (fun k -> assert (HM.insert a k)) keys;
  reset_counts ();
  check "found" true (HM.search a 100);
  check_int "one protect per hop" 11 !protects;
  check_int "no dup" 0 !dups;
  reset_counts ();
  check "delete" true (HM.delete a 50);
  check "insert at the end" true (HM.insert a 105);
  check_int "updates: no dup" 0 !dups

(* Leave [k] marked but linked: while [a] deletes [k], [b] inserts [k - 5]
   in front of it just before [a]'s last protect (the read of [k]'s link,
   the [k / 10 + 1]-th on an unmarked list of 10, 20, ..), so [a]'s unlink
   CAS fails; [b] then deletes [k - 5] again. *)
let mark_in_place ~insert ~delete a b k =
  hooked
    (fun i _ -> if i = (k / 10) + 1 then assert (insert b (k - 5)))
    (fun () -> assert (delete a k));
  assert (delete b (k - 5))

(* One marked chain (50, 60): a read-only search through it enters the
   dangerous zone once — exactly one dup — and still publishes once per
   physical hop.  An update's traversal unlinks the chain, after which
   searches are back to no dup. *)
let test_hl_chain_one_dup () =
  let t, a, b = hl_list () in
  let mark = mark_in_place ~insert:HL.insert ~delete:HL.delete a b in
  mark 60;
  mark 50;
  check "50 and 60 logically gone" true
    (HL.to_list t = [ 10; 20; 30; 40; 70; 80; 90; 100 ]);
  HL.check_invariants t;
  reset_counts ();
  check "search through the chain" true (HL.search a 100);
  check_int "search: one dup (zone entry)" 1 !dups;
  check_int "search: one protect per physical hop" 11 !protects;
  reset_counts ();
  check "insert unlinks the chain" true (HL.insert a 105);
  check_int "insert: one dup (zone entry)" 1 !dups;
  reset_counts ();
  check "search after cleanup" true (HL.search a 100);
  check_int "search after cleanup: no dup" 0 !dups;
  check_int "one protect per hop after cleanup" 9 !protects;
  HL.check_invariants t

(* The same marked chain (50, 60) under every scheme: read-only searches
   answer exactly for every key around it and enter it once per search
   without unlinking it; the first update through it unlinks it. *)
let test_chain_search (module S : Smr.Smr_intf.S) () =
  let module C = Instrumented (S) in
  let module L = Scot.Harris_list.Make (C) in
  let smr = C.create ~threads:2 ~slots:Scot.Harris_list.slots_needed () in
  let t = L.create ~smr ~threads:2 () in
  let a = L.handle t ~tid:0 and b = L.handle t ~tid:1 in
  List.iter (fun k -> assert (labelled L.insert a k)) keys;
  let mark = mark_in_place ~insert:L.insert ~delete:L.delete a b in
  mark 60;
  mark 50;
  let present = [ 10; 20; 30; 40; 70; 80; 90; 100 ] in
  check "50 and 60 logically gone" true (L.to_list t = present);
  let agree () =
    List.for_all
      (fun k -> L.search a k = List.mem k present)
      (List.init 111 Fun.id)
  in
  check "searches agree with the contents" true (agree ());
  reset_counts ();
  check "search through the chain" true (L.search a 100);
  check_int "search: the chain is still there" 1 !dups;
  check "insert unlinks the chain" true (labelled L.insert a 105);
  reset_counts ();
  check "search after cleanup" true (L.search a 100);
  check_int "search after cleanup: no dup" 0 !dups;
  check_int "one protect per hop after cleanup" 9 !protects;
  L.check_invariants t

(* Reclaim on every retire, so a node nobody protects is freed at once. *)
let aggressive =
  Smr.Smr_intf.make_config ~limbo_threshold:1 ~epoch_freq:1 ~batch_size:1
    ~threads:2 ()

(* Prev reclaimed and reused in the middle of a marked chain.  On 10, 20,
   .., 100 with 50 to 80 marked in place, an insert stands in the chain
   with 40 as its last safe node.  Before its read of 70's link (two
   hops into the chain), a second handle deletes 40, forces a reclamation
   pass and inserts 205, which reuses whatever the pass freed.  40 is
   still the traversal's prev, so it must not be freed: if it were, 205
   would be built in it and the next validation would recover to 205's
   successor, the tail — inserting 105 after 205. *)
let test_prev_reused_mid_zone (module S : Smr.Smr_intf.S) () =
  let module C = Instrumented (S) in
  let module L = Scot.Harris_list.Make (C) in
  let smr =
    C.create ~config:aggressive ~threads:2
      ~slots:Scot.Harris_list.slots_needed ()
  in
  let t = L.create ~smr ~threads:2 () in
  let a = L.handle t ~tid:0 and b = L.handle t ~tid:1 in
  List.iter (fun k -> assert (labelled L.insert a k)) keys;
  let mark = mark_in_place ~insert:L.insert ~delete:L.delete a b in
  List.iter mark [ 80; 70; 60; 50 ];
  let fired = ref false in
  let r =
    hooked
      (fun _ next ->
        if next = 80 && not !fired then begin
          fired := true;
          check "adversary deletes prev" true (L.delete b 40);
          L.quiesce b;
          check "adversary inserts" true (labelled L.insert b 205)
        end)
      (fun () -> labelled L.insert a 105)
  in
  check "adversary ran" true !fired;
  L.check_invariants t;
  check "insert 105" true r;
  check "contents after insert" true
    (L.to_list t = [ 10; 20; 30; 90; 100; 105; 205 ])

(* Run [hooked hook f] from inside another hook: [f]'s protects reach
   [hook], and the outer hook is re-armed afterwards. *)
let nested_hooked hook f =
  let outer = !before_protect in
  in_hook := false;
  Fun.protect
    ~finally:(fun () ->
      in_hook := true;
      before_protect := outer)
    (fun () -> hooked hook f)

(* §3.2.1 recovery, deterministically.  On 10, 20, .., 100 with 50 and 60
   marked in place, a search for 100 or an insert of 105 stands in the
   chain with 40 as its last safe node.  Before its read of 60's link (the
   second hop into the chain), the adversary puts a key right after 40:
   [b] inserts 44, which unlinks the old chain on its way, and marks 44 in
   place ([c] inserts 42 in front of it so [b]'s unlink CAS fails, then
   deletes 42 again).  40 now links a marked 44 through a record the
   traversal has not seen, so its next validation fails.  With recovery,
   the traversal re-reads 40's link and goes on from 44 without a
   restart: 44's link is marked, so it enters a new chain whose expected
   record is the recovered one, and an insert unlinks 44 with a CAS on
   40's link that expects exactly that record — any other [expected]
   would fail the CAS and restart.  Without recovery, the failed
   validation restarts the traversal once. *)
let test_recovery_threads_expected ~recovery ~insert () =
  let smr = CHp.create ~threads:3 ~slots:Scot.Harris_list.slots_needed () in
  let t =
    HL.create
      ~validation:(if recovery then `Recover else `Restart)
      ~smr ~threads:3 ()
  in
  let a = HL.handle t ~tid:0 and b = HL.handle t ~tid:1
  and c = HL.handle t ~tid:2 in
  List.iter (fun k -> assert (labelled HL.insert a k)) keys;
  let mark = mark_in_place ~insert:(labelled HL.insert) ~delete:HL.delete a b in
  mark 60;
  mark 50;
  let quiesce () = List.iter HL.quiesce [ a; b; c ] in
  quiesce ();
  let freed () = List.assoc "freed" (HL.pool_stats t) in
  let freed0 = freed () and restarts0 = HL.restarts t in
  let fired = ref false in
  let adversary () =
    check "adversary inserts 44" true (labelled HL.insert b 44);
    nested_hooked
      (fun _ next ->
        if next = 70 then
          check "42 in front of 44" true (labelled HL.insert c 42))
      (fun () -> check "adversary deletes 44" true (HL.delete b 44));
    check "adversary deletes 42" true (HL.delete c 42)
  in
  let r =
    hooked
      (fun _ next ->
        if next = 70 && not !fired then begin
          fired := true;
          adversary ()
        end)
      (fun () ->
        if insert then labelled HL.insert a 105 else HL.search a 100)
  in
  check "adversary ran" true !fired;
  check "answer" true r;
  check_int "restarts"
    (if recovery then 0 else 1)
    (HL.restarts t - restarts0);
  HL.check_invariants t;
  let expect = [ 10; 20; 30; 40; 70; 80; 90; 100 ] in
  check "contents" true
    (HL.to_list t = if insert then expect @ [ 105 ] else expect);
  (* An insert's traversal unlinked 44: the list holds no marked node, so
     a search enters no chain. *)
  reset_counts ();
  check "search after" true (HL.search a 100);
  check_int "marked chains left" (if insert then 0 else 1) !dups;
  (* Reclaimed: the old chain (50, 60) and 42; 44 too once unlinked. *)
  quiesce ();
  check_int "nodes reclaimed" (if insert then 4 else 3) (freed () - freed0)

(* {2 Adversarial coverage}

   Odd keys belong to the adversary, even keys to the traversal under
   test, so the adversary never changes the answer the traversal must
   give.  Before each protect of the traversal, the adversary looks at the
   key about to be protected and takes the two present keys below it: the
   node the traversal stands on (or, inside a marked chain, the last safe
   node) and the one before.  It deletes one, the other, both or neither,
   forces a reclamation pass, and inserts as many absent odd keys drawn
   anywhere in the key space, so the reclaimed nodes are reused far from
   where they were.  Deleting curr sends the traversal into the dangerous
   zone and the §3.2.1 recovery; deleting prev fails its validation or
   its update CAS.  A slot overwritten too early would let one of these
   nodes come back elsewhere while the traversal still relies on it. *)

let range = 48 (* even targets in [2, 2 range); odd keys in [1, 4 range) *)
let universe = 4 * range
let max_actions = 40 (* adversary actions per operation: ensures progress *)

(* What the adversarial run needs from a list. *)
module type SET = sig
  type t
  type handle

  val insert : handle -> int -> bool
  val delete : handle -> int -> bool
  val search : handle -> int -> bool
  val quiesce : handle -> unit
  val restarts : t -> int
  val pool_stats : t -> (string * int) list
  val to_list : t -> int list
  val check_invariants : t -> unit
end

module Adversarial (L : SET) = struct
  (* The adversary's move before one protect. *)
  let adversary b st model next =
    let rec below k n acc =
      if k < 0 || n = 0 then List.rev acc
      else if model.(k) then below (k - 1) (n - 1) (k :: acc)
      else below (k - 1) n acc
    in
    let curr, prev =
      match below (min next universe - 1) 2 [] with
      | [ c; p ] -> (Some c, Some p)
      | [ c ] -> (Some c, None)
      | _ -> (None, None)
    in
    let victims =
      match Random.State.int st 4 with
      | 0 -> [ curr ]
      | 1 -> [ prev ]
      | 2 -> [ curr; prev ]
      | _ -> []
    in
    let victims =
      List.filter_map
        (function Some k when k mod 2 = 1 -> Some k | _ -> None)
        victims
    in
    List.iter
      (fun k ->
        check (Printf.sprintf "adversary deletes %d" k) true (L.delete b k);
        model.(k) <- false)
      victims;
    L.quiesce b;
    List.iter
      (fun _ ->
        let rec absent () =
          let k = (2 * Random.State.int st (universe / 2)) + 1 in
          if model.(k) then absent () else k
        in
        let k = absent () in
        check (Printf.sprintf "adversary inserts %d" k) true
          (labelled L.insert b k);
        model.(k) <- true)
      victims

  (* Random even-key operations by [a], each under the adversary; every
     answer, the adversary's included, is checked against a model of the
     set. *)
  let run t a b ~dups_expected =
    let model = Array.make universe false in
    for k = 0 to range - 1 do
      assert (labelled L.insert a ((2 * k) + 1));
      model.((2 * k) + 1) <- true
    done;
    reset_counts ();
    let st = Random.State.make [| 7 |] in
    for _ = 1 to 300 do
      let target = 2 * (1 + Random.State.int st (range - 1)) in
      let run f =
        hooked
          (fun i next -> if i <= max_actions then adversary b st model next)
          f
      in
      match Random.State.int st 3 with
      | 0 ->
          check (Printf.sprintf "search %d" target) model.(target)
            (run (fun () -> L.search a target))
      | 1 ->
          check (Printf.sprintf "insert %d" target) (not model.(target))
            (run (fun () -> labelled L.insert a target));
          model.(target) <- true
      | _ ->
          check (Printf.sprintf "delete %d" target) model.(target)
            (run (fun () -> L.delete a target));
          model.(target) <- false
    done;
    L.check_invariants t;
    check "final contents" true
      (L.to_list t
      = List.filter (fun k -> model.(k)) (List.init universe Fun.id));
    check "dup calls as expected" true (dups_expected !dups);
    check "restarts exercised" true (L.restarts t > 0);
    check "nodes recycled" true (List.assoc "recycled" (L.pool_stats t) > 0)
end

let test_hl_adversarial (module S : Smr.Smr_intf.S) () =
  let module C = Instrumented (S) in
  let module L = Scot.Harris_list.Make (C) in
  let module A = Adversarial (L) in
  let smr =
    C.create ~config:aggressive ~threads:2
      ~slots:Scot.Harris_list.slots_needed ()
  in
  let t = L.create ~smr ~threads:2 () in
  (* The dangerous zone is exercised: marked chains are entered. *)
  A.run t (L.handle t ~tid:0) (L.handle t ~tid:1)
    ~dups_expected:(fun n -> n > 0)

let test_hm_adversarial (module S : Smr.Smr_intf.S) () =
  let module C = Instrumented (S) in
  let module L = Scot.Harris_michael_list.Make (C) in
  let module A = Adversarial (L) in
  let smr =
    C.create ~config:aggressive ~threads:2
      ~slots:Scot.Harris_michael_list.slots_needed ()
  in
  let t = L.create ~smr ~threads:2 () in
  (* Eager unlinking never enters a marked chain: no dup at all. *)
  A.run t (L.handle t ~tid:0) (L.handle t ~tid:1)
    ~dups_expected:(fun n -> n = 0)

let robust =
  [ (module Smr.Hp : Smr.Smr_intf.S); (module Smr.Hp_opt); (module Smr.He) ]

let per_scheme name f =
  List.map
    (fun s ->
      let module S = (val s : Smr.Smr_intf.S) in
      Alcotest.test_case (Printf.sprintf "%s (%s)" name S.name) `Quick (f s))
    robust

let () =
  Alcotest.run "slot_rotation"
    [
      ( "exact-counts",
        [
          Alcotest.test_case "HList search: no dup, one protect per hop"
            `Quick test_hl_counts;
          Alcotest.test_case "HMList search: no dup, one protect per hop"
            `Quick test_hm_counts;
          Alcotest.test_case "HList marked chain: one dup" `Quick
            test_hl_chain_one_dup;
        ] );
      ( "marked-chain",
        List.map
          (fun s ->
            let module S = (val s : Smr.Smr_intf.S) in
            Alcotest.test_case
              (Printf.sprintf "HList search through a chain (%s)" S.name)
              `Quick (test_chain_search s))
          Smr.Registry.all );
      ( "prev-reuse",
        per_scheme "prev reused mid-zone" test_prev_reused_mid_zone );
      ( "recovery",
        List.map
          (fun (recovery, insert) ->
            Alcotest.test_case
              (Printf.sprintf "HList %s through a re-linked chain%s"
                 (if insert then "insert" else "search")
                 (if recovery then "" else ", recovery off"))
              `Quick
              (test_recovery_threads_expected ~recovery ~insert))
          [ (true, false); (true, true); (false, false); (false, true) ] );
      ( "adversarial",
        per_scheme "HList under delete-behind" test_hl_adversarial
        @ per_scheme "HMList under delete-behind" test_hm_adversarial );
    ]
