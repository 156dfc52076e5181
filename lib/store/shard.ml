(* One store shard: a structure instance plus its own SMR instance and a
   pre-registered handle per client thread, type-erased the way
   [Harness.Instance] erases benchmark structures so the store front end
   and the serve runner work over any (backend x scheme) pair.

   Every shard owns a private SMR instance: reclamation pressure on one
   shard never forces scans of another shard's hazard slots, and a
   crashed client is recovered shard-by-shard.  All bucket handles share
   one registration per client thread, so the single-bracket batch
   dispatch covers every bucket. *)

type backend = Hashmap | Skiplist

let backend_name = function Hashmap -> "HashMap" | Skiplist -> "SkipList"

let backend_of_string s =
  match String.lowercase_ascii s with
  | "hashmap" -> Some Hashmap
  | "skiplist" -> Some Skiplist
  | _ -> None

type t = {
  backend : backend;
  scheme : string;
  scheme_mod : Smr.Registry.scheme;
  config : Smr.Smr_intf.config;
  threads : int;
  slots : int;
  search : tid:int -> int -> bool;
  insert : tid:int -> int -> bool;
  delete : tid:int -> int -> bool;
  apply_batch : tid:int -> Scot.Batch_op.buf -> unit;
      (* every request in the buffer under ONE start_op/end_op bracket *)
  quiesce : tid:int -> unit;
  teardown : unit -> unit;
  unreclaimed : unit -> int;
  scheme_stats : unit -> (string * int) list;
  size : unit -> int;
  check_invariants : unit -> unit;
  recover : tid:int -> unit;
  capabilities : Smr.Smr_intf.capabilities;
  set_pressure : bool -> unit;
      (* clamp/release this shard's SMR tuners (S.set_pressure) *)
}

let make_hashmap (module S : Smr.Smr_intf.S) ~threads ~config ~buckets () =
  let module M = Scot.Hashmap.Make (S) in
  let slots = Scot.Hashmap.slots_needed in
  let smr = S.create ~config ~threads ~slots () in
  let t = M.create ~buckets ~smr ~threads () in
  let handles = Array.init threads (fun tid -> M.handle t ~tid) in
  {
    backend = Hashmap;
    scheme = S.name;
    scheme_mod = (module S : Smr.Smr_intf.S);
    config;
    threads;
    slots;
    search = (fun ~tid k -> M.search handles.(tid) k);
    insert = (fun ~tid k -> M.insert handles.(tid) k);
    delete = (fun ~tid k -> M.delete handles.(tid) k);
    apply_batch = (fun ~tid b -> M.apply_batch handles.(tid) b);
    quiesce = (fun ~tid -> M.quiesce handles.(tid));
    teardown = (fun () -> Array.iter M.quiesce handles);
    unreclaimed = (fun () -> S.unreclaimed smr);
    scheme_stats = (fun () -> S.stats smr);
    size = (fun () -> M.size t);
    check_invariants = (fun () -> M.check_invariants t);
    recover = (fun ~tid -> handles.(tid) <- M.recover handles.(tid));
    capabilities = S.capabilities;
    set_pressure = (fun on -> S.set_pressure smr on);
  }

let make_skiplist (module S : Smr.Smr_intf.S) ~threads ~config () =
  let module SL = Scot.Skiplist.Make (S) in
  let slots = Scot.Skiplist.slots_needed in
  let smr = S.create ~config ~threads ~slots () in
  let t = SL.create ~smr ~threads () in
  let handles = Array.init threads (fun tid -> SL.handle t ~tid) in
  {
    backend = Skiplist;
    scheme = S.name;
    scheme_mod = (module S : Smr.Smr_intf.S);
    config;
    threads;
    slots;
    search = (fun ~tid k -> SL.search handles.(tid) k);
    insert = (fun ~tid k -> SL.insert handles.(tid) k);
    delete = (fun ~tid k -> SL.delete handles.(tid) k);
    apply_batch = (fun ~tid b -> SL.apply_batch handles.(tid) b);
    quiesce = (fun ~tid -> SL.quiesce handles.(tid));
    teardown = (fun () -> Array.iter SL.quiesce handles);
    unreclaimed = (fun () -> SL.unreclaimed t);
    scheme_stats = (fun () -> S.stats smr);
    size = (fun () -> SL.size t);
    check_invariants = (fun () -> SL.check_invariants t);
    recover = (fun ~tid -> handles.(tid) <- SL.recover handles.(tid));
    capabilities = S.capabilities;
    set_pressure = (fun on -> S.set_pressure smr on);
  }

let create ?config ?(buckets = 256) ~backend ~scheme ~threads () =
  let (module S : Smr.Smr_intf.S) = scheme in
  let config =
    match config with
    | Some c -> c
    | None -> Smr.Smr_intf.default_config ~threads
  in
  match backend with
  | Hashmap -> make_hashmap (module S) ~threads ~config ~buckets ()
  | Skiplist -> make_skiplist (module S) ~threads ~config ()

(* Memory ceiling for the soak verdict: delegate to the chaos bound with
   this shard's own scheme/config/slots.  [None] for non-robust schemes. *)
let mem_bound t ~range ?adopted ~stalled () =
  Harness.Chaos.mem_bound t.scheme_mod ~config:t.config ~threads:t.threads
    ~slots:t.slots ~range ?adopted ~stalled ()

(* Always-defined reference ceiling, for pressure budgets and
   negative-control verdicts: the shard's own bound when its scheme is
   robust, else the bound a robust scheme of the same shape (IBR, the
   paper's reference robust scheme) would have at this config.  A
   non-robust shard's gauge has no bound of its own — "demonstrably
   exceeds the bound" is only meaningful against what a robust scheme
   would have promised on the same workload. *)
let ref_mem_bound t ~range ?adopted ~stalled () =
  match mem_bound t ~range ?adopted ~stalled () with
  | Some b -> b
  | None -> (
      let ibr = Smr.Registry.find_exn "IBR" in
      match
        Harness.Chaos.mem_bound ibr ~config:t.config ~threads:t.threads
          ~slots:t.slots ~range ?adopted ~stalled ()
      with
      | Some b -> b
      | None -> assert false (* IBR is robust *))
