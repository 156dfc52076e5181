(* scotstore front end: a domain-sharded KV tier over the SCOT
   structures.

   Each client thread owns a [client] record: per-shard request buffers
   (the batched path), a TTL book (deadline per key + a lazy expiry
   queue), and its tid's pre-registered handle on every shard.  The
   immediate path ([get]/[put]/[delete]) is the one-bracket-per-op
   baseline; the deferred path ([enqueue_*]/[get_many]/[flush]) groups
   requests by destination shard and dispatches each group under a
   single SMR bracket — the amortisation this tier exists to measure.

   TTL is best-effort and client-local: the client that wrote a
   deadline is the one that later evicts it, through the ordinary
   delete path (unlink then [retire]), so expired entries flow through
   the same reclamation machinery as any other removal.  Sweeps run on
   [flush] and every [sweep_period] ops; a key re-put with a later
   deadline leaves a stale queue entry behind, which the sweep detects
   against the deadline book and skips.  A DEFERRED put's deadline is
   recorded at dispatch (flush), not enqueue: noting it early would let
   a sweep that fires between deadline and flush delete the key AND
   consume its book entry, after which the flushed put would re-insert
   the key with no deadline at all — a permanent leak.  Until the put
   dispatches, its key carries no book entry, so the sweep also cannot
   evict a key that has a pending re-put queued. *)

module B = Scot.Batch_op

type t = {
  shard_arr : Shard.t array;
  router : Router.t;
  threads : int;
  batch_capacity : int;
  stats : Stats.t;
  mutable pressure : Pressure.t array option;
      (* one state machine per shard once armed; [None] (the default)
         keeps every legacy path byte-identical — the level reads below
         constant-fold to [Healthy] *)
  mutable shed : bool;  (* armed and robust (see [arm_pressure]) *)
}

type client = {
  store : t;
  tid : int;
  batch : Batch.t;
  deadlines : (int, float) Hashtbl.t;  (* current TTL deadline per key *)
  pending_ttls : (int, float) Hashtbl.t;  (* key -> ttl_s of a queued put *)
  expiry : (float * int) Queue.t;  (* insertion-ordered sweep candidates *)
  mutable ops_since_sweep : int;
  now : unit -> float;
  on_result : (kind:int -> key:int -> hit:bool -> unit) option;
}

let sweep_period = 64

let create ?config ?buckets ?(batch_capacity = 64) ~backend ~scheme ~shards
    ~threads () =
  if shards <= 0 then invalid_arg "Store.create: shards must be positive";
  if threads <= 0 then invalid_arg "Store.create: threads must be positive";
  if batch_capacity <= 0 then
    invalid_arg "Store.create: batch_capacity must be positive";
  {
    shard_arr =
      Array.init shards (fun _ ->
          Shard.create ?config ?buckets ~backend ~scheme ~threads ());
    router = Router.create ~shards;
    threads;
    batch_capacity;
    stats = Stats.create ~shards ~threads ~batch_capacity;
    pressure = None;
    shed = false;
  }

let client ?now ?on_result t ~tid =
  if tid < 0 || tid >= t.threads then
    invalid_arg
      (Printf.sprintf "Store.client: tid %d out of range [0, %d)" tid
         t.threads);
  {
    store = t;
    tid;
    batch = Batch.create ~shards:(Array.length t.shard_arr) ~capacity:t.batch_capacity;
    deadlines = Hashtbl.create 64;
    pending_ttls = Hashtbl.create 16;
    expiry = Queue.create ();
    ops_since_sweep = 0;
    now = (match now with Some f -> f | None -> Harness.Clock.now);
    on_result;
  }

let route c key = Router.shard_of c.store.router key

(* {2 Pressure: per-shard overload level}

   Disarmed stores report [Healthy] everywhere, so the admission and
   flush paths below collapse to the legacy behaviour.  The level read
   is one option check plus one atomic load. *)

let shard_level t s =
  match t.pressure with
  | None -> Pressure.Healthy
  | Some arr -> Pressure.level arr.(s)

let robust t =
  Array.for_all
    (fun sh -> sh.Shard.capabilities.Smr.Smr_intf.robust)
    t.shard_arr

(* Shedding follows the scheme: a robust one bounds its limbo, so
   refusing writes lets it drain; a non-robust one (EBR, NR) is the
   negative control and must stay free to overflow. *)
let arm_pressure t configs =
  if Array.length configs <> Array.length t.shard_arr then
    invalid_arg
      (Printf.sprintf "Store.arm_pressure: %d configs for %d shards"
         (Array.length configs) (Array.length t.shard_arr));
  t.pressure <- Some (Array.map Pressure.create configs);
  t.shed <- robust t

let pressure t s =
  match t.pressure with None -> None | Some arr -> Some arr.(s)

(* One coordinator sample: feed every shard's gauge and write backlog to
   its state machine and report the worst level.

   [sweep_tid], when given, must be a client slot the coordinator OWNS
   (no worker domain uses it): every shard at Pressured or worse gets a
   synchronous reclamation pass through that handle.  This matters at
   [Degraded_all]: with every write shed there are no retires left to
   trigger the schemes' retire-path reclamation, so without an external
   sweep the gauge would freeze above the exit threshold and the shard
   could never descend. *)
let observe_pressure ?sweep_tid t ~now =
  match t.pressure with
  | None -> Pressure.Healthy
  | Some arr ->
      let worst = ref Pressure.Healthy in
      Array.iteri
        (fun s p ->
          let sh = t.shard_arr.(s) in
          let level =
            Pressure.observe p
              ~gauge:(sh.Shard.unreclaimed ())
              ~queued:(Stats.queued_depth t.stats ~shard:s)
              ~now
          in
          let pressed =
            Pressure.level_rank level >= Pressure.level_rank Pressure.Pressured
          in
          (match sweep_tid with
          | Some tid when pressed -> sh.Shard.quiesce ~tid
          | _ -> ());
          if Pressure.level_rank level > Pressure.level_rank !worst then
            worst := level)
        arr;
      !worst

let account c ~shard ~kind ~key ~hit =
  Stats.record c.store.stats ~shard ~tid:c.tid ~hit;
  match c.on_result with None -> () | Some f -> f ~kind ~key ~hit

(* {2 TTL book-keeping} *)

let note_ttl c key = function
  | None -> Hashtbl.remove c.deadlines key
  | Some ttl_s ->
      if ttl_s <= 0. then invalid_arg "Store.put: ttl_s must be positive";
      let dl = c.now () +. ttl_s in
      Hashtbl.replace c.deadlines key dl;
      Queue.push (dl, key) c.expiry

let sweep_expired ?now c =
  let now = match now with Some v -> v | None -> c.now () in
  let rec go n =
    match Queue.peek_opt c.expiry with
    | Some (dl, key) when dl <= now -> (
        ignore (Queue.pop c.expiry);
        match Hashtbl.find_opt c.deadlines key with
        | Some dl' when dl' <= now ->
            Hashtbl.remove c.deadlines key;
            let s = route c key in
            ignore (c.store.shard_arr.(s).Shard.delete ~tid:c.tid key);
            Stats.record_expired c.store.stats ~tid:c.tid;
            go (n + 1)
        | _ -> go n (* stale entry: a later re-put moved the deadline *))
    | _ -> n
  in
  go 0

let maybe_sweep c =
  c.ops_since_sweep <- c.ops_since_sweep + 1;
  if c.ops_since_sweep >= sweep_period then begin
    c.ops_since_sweep <- 0;
    if not (Queue.is_empty c.expiry) then ignore (sweep_expired c)
  end

(* {2 Immediate path: one bracket per operation} *)

let get c key =
  let s = route c key in
  let hit = c.store.shard_arr.(s).Shard.search ~tid:c.tid key in
  account c ~shard:s ~kind:B.get ~key ~hit;
  maybe_sweep c;
  hit

let put ?ttl_s c key =
  let s = route c key in
  let hit = c.store.shard_arr.(s).Shard.insert ~tid:c.tid key in
  note_ttl c key ttl_s;
  account c ~shard:s ~kind:B.put ~key ~hit;
  maybe_sweep c;
  hit

let delete c key =
  let s = route c key in
  let hit = c.store.shard_arr.(s).Shard.delete ~tid:c.tid key in
  Hashtbl.remove c.deadlines key;
  account c ~shard:s ~kind:B.del ~key ~hit;
  maybe_sweep c;
  hit

(* {2 Deferred path: group by shard, one bracket per group} *)

(* Deliver a dispatched group's results: bulk stats (two fetch-and-adds
   for the whole group, amortised like the bracket) plus the per-request
   callback when one is attached. *)
let deliver c s buf n =
  Stats.record_flush c.store.stats ~tid:c.tid ~occupancy:n;
  let hits = ref 0 in
  (match c.on_result with
  | Some f ->
      for i = 0 to n - 1 do
        let hit = buf.B.results.(i) in
        if hit then incr hits;
        f ~kind:buf.B.kinds.(i) ~key:buf.B.keys.(i) ~hit
      done
  | None ->
      for i = 0 to n - 1 do
        if buf.B.results.(i) then incr hits
      done);
  Stats.record_bulk c.store.stats ~shard:s ~tid:c.tid ~ops:n ~hits:!hits

(* Dispatch one shard's buffered group under a single bracket and settle
   its side effects (pending-TTL deadlines, stats, callbacks).  Does NOT
   clear the buffer — [get_many] still needs the result slots; callers
   clear once they are done with them. *)
let dispatch_shard c s buf n =
  c.store.shard_arr.(s).Shard.apply_batch ~tid:c.tid buf;
  Stats.record_dispatched c.store.stats ~shard:s ~tid:c.tid ~n;
  (* Pressured mitigation: a synchronous sweep right behind the dispatch
     drains what the batch just retired instead of letting it sit in
     limbo until the threshold cadence catches up. *)
  if
    Pressure.level_rank (shard_level c.store s)
    >= Pressure.level_rank Pressure.Pressured
  then c.store.shard_arr.(s).Shard.quiesce ~tid:c.tid;
  (* The queued puts are live now: record their deadlines (the TTL
     clock runs from dispatch — see the header on why enqueue-time
     deadlines leak). *)
  if Hashtbl.length c.pending_ttls > 0 then
    for i = 0 to n - 1 do
      if buf.B.kinds.(i) = B.put then begin
        let key = buf.B.keys.(i) in
        match Hashtbl.find_opt c.pending_ttls key with
        | Some ttl_s ->
            Hashtbl.remove c.pending_ttls key;
            note_ttl c key (Some ttl_s)
        | None -> ()
      end
    done;
  deliver c s buf n

let flush_shard c s =
  let buf = Batch.shard_buf c.batch s in
  let n = B.length buf in
  if n > 0 then begin
    dispatch_shard c s buf n;
    B.clear buf
  end

(* The table lookups are guarded by O(1) emptiness checks so a client
   that never uses TTLs pays two field loads per queued write, not two
   hash probes. *)
let enqueue c s ~kind ?ttl_s key =
  if kind = B.put then begin
    (* Clear any current deadline either way — the queued put resets the
       key's TTL state at dispatch — and stage the new TTL (validated
       now so the raise happens at the call site, not inside a flush). *)
    if Hashtbl.length c.deadlines > 0 then Hashtbl.remove c.deadlines key;
    match ttl_s with
    | Some t ->
        if t <= 0. then invalid_arg "Store.put: ttl_s must be positive";
        Hashtbl.replace c.pending_ttls key t
    | None ->
        if Hashtbl.length c.pending_ttls > 0 then
          Hashtbl.remove c.pending_ttls key
  end
  else if kind = B.del then begin
    if Hashtbl.length c.deadlines > 0 then Hashtbl.remove c.deadlines key;
    if Hashtbl.length c.pending_ttls > 0 then
      Hashtbl.remove c.pending_ttls key
  end;
  let buf = Batch.shard_buf c.batch s in
  B.push buf ~kind ~key;
  Stats.record_queued c.store.stats ~shard:s ~tid:c.tid;
  (* Pressured mitigation, part two: halve the effective group size so
     dispatches (and their synchronous sweeps) come twice as often —
     smaller retire bursts against a gauge already near budget. *)
  let cap =
    if
      Pressure.level_rank (shard_level c.store s)
      >= Pressure.level_rank Pressure.Pressured
    then max 1 (c.store.batch_capacity / 2)
    else c.store.batch_capacity
  in
  if B.length buf >= cap then flush_shard c s;
  maybe_sweep c

let enqueue_get c key = enqueue c (route c key) ~kind:B.get key

let flush c =
  Batch.iter_nonempty c.batch (fun s _ -> flush_shard c s);
  if not (Queue.is_empty c.expiry) then ignore (sweep_expired c)

let pending c = Batch.pending c.batch

(* The batched-read path: each get is pushed BEHIND its shard's queued
   writes, so one [apply_batch] per non-empty shard dispatches writes
   then reads under a single bracket.  Within a shard the group executes
   in program order (the structures' [apply_batch] guarantee), so every
   read observes this client's earlier queued writes — the visibility the
   old pre-flush bought with an extra bracket per shard — and same-key
   runs coalesce across the write/read boundary (a get directly after
   its own queued put is answered from the coalescing memo, no
   traversal). *)
let get_many c keys =
  let n = Array.length keys in
  let pos = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = route c keys.(i) in
    let buf = Batch.shard_buf c.batch s in
    pos.(i) <- B.length buf;
    B.push buf ~kind:B.get ~key:keys.(i);
    Stats.record_queued c.store.stats ~shard:s ~tid:c.tid
  done;
  Batch.iter_nonempty c.batch (fun s buf -> dispatch_shard c s buf (B.length buf));
  let out =
    Array.init n (fun i ->
        let s = route c keys.(i) in
        (Batch.shard_buf c.batch s).B.results.(pos.(i)))
  in
  Batch.clear c.batch;
  if not (Queue.is_empty c.expiry) then ignore (sweep_expired c);
  out

(* {2 Admission: deadlines and overload shedding on deferred writes}

   [enqueue_put]/[enqueue_delete] are the store's one gated path.
   Admission is two cheap checks before the write is queued:

   - deadline: a request whose absolute deadline (client clock) already
     passed is refused with [`Deadline_exceeded] — the caller's budget is
     spent, doing the work anyway only adds queue time for everyone
     behind it;
   - shedding, on an armed store of a robust scheme: writes against a
     shard at [Degraded_ttl] lose their TTL-carrying requests (cache
     fills — the load a degraded shard can shed with the least damage),
     at [Degraded_all] every write, both with [`Overload].  Reads are
     never shed: keeping reads live is the entire point of shedding
     writes.

   The immediate path above stays un-gated, and a disarmed store (or
   an armed one of a non-robust scheme) admits every write. *)

let[@inline] deadline_passed c deadline =
  match deadline with
  | None -> false
  | Some dl ->
      if c.now () > dl then begin
        Stats.record_deadline_reject c.store.stats ~tid:c.tid;
        true
      end
      else false

(* A shed client pays for its own garbage before it backs off: flush the
   already-admitted writes it has queued against the refusing shard (the
   dispatch runs a synchronous sweep at Pressured+), or failing that
   sweep its handle's limbo directly.  Without this, a store where every
   shard reaches [Degraded_all] deadlocks: all writes shed -> no client
   ever dispatches -> nobody runs the retire-path reclamation that would
   drain the very gauge holding the level up — the coordinator can't do
   it for them, handles are single-owner.  Shedding already costs the
   caller a retry/backoff cycle, so the sweep is free from the service's
   point of view. *)
let shed_housekeeping c s =
  let buf = Batch.shard_buf c.batch s in
  if B.length buf > 0 then flush_shard c s
  else c.store.shard_arr.(s).Shard.quiesce ~tid:c.tid

(* [ttl] marks a TTL-carrying put; plain puts and deletes shed one stage
   later. *)
let write_shed c s ~ttl =
  c.store.shed
  &&
  match shard_level c.store s with
  | Pressure.Healthy | Pressure.Pressured -> false
  | Pressure.Degraded_ttl ->
      if ttl then begin
        Stats.record_shed c.store.stats ~tid:c.tid ~ttl:true;
        shed_housekeeping c s;
        true
      end
      else false
  | Pressure.Degraded_all ->
      Stats.record_shed c.store.stats ~tid:c.tid ~ttl;
      shed_housekeeping c s;
      true

let admit c ~kind ?ttl_s ?deadline key =
  if deadline_passed c deadline then `Deadline_exceeded
  else
    let s = route c key in
    if write_shed c s ~ttl:(Option.is_some ttl_s) then `Overload
    else begin
      enqueue c s ~kind ?ttl_s key;
      `Queued
    end

let enqueue_put ?ttl_s ?deadline c key =
  admit c ~kind:B.put ?ttl_s ?deadline key

let enqueue_delete ?deadline c key = admit c ~kind:B.del ?deadline key

(* {2 Store-wide observers and maintenance} *)

let shards t = Array.length t.shard_arr
let shard_of t key = Router.shard_of t.router key
let stats t = t.stats
let shard t i = t.shard_arr.(i)

let size t =
  Array.fold_left (fun acc sh -> acc + sh.Shard.size ()) 0 t.shard_arr

let unreclaimed t =
  Array.fold_left (fun acc sh -> acc + sh.Shard.unreclaimed ()) 0 t.shard_arr

let quiesce t ~tid = Array.iter (fun sh -> sh.Shard.quiesce ~tid) t.shard_arr
let teardown t = Array.iter (fun sh -> sh.Shard.teardown ()) t.shard_arr

let check_invariants t =
  Array.iter (fun sh -> sh.Shard.check_invariants ()) t.shard_arr

let recover t ~tid = Array.iter (fun sh -> sh.Shard.recover ~tid) t.shard_arr
let recoverable t =
  Array.for_all
    (fun sh -> sh.Shard.capabilities.Smr.Smr_intf.recoverable)
    t.shard_arr

let mem_bound t ~range ?adopted ~stalled () =
  Array.fold_left
    (fun acc sh ->
      match (acc, Shard.mem_bound sh ~range ?adopted ~stalled ()) with
      | Some a, Some b -> Some (a + b)
      | _ -> None)
    (Some 0) t.shard_arr

let ref_mem_bound t ~range ?adopted ~stalled () =
  Array.fold_left
    (fun acc sh -> acc + Shard.ref_mem_bound sh ~range ?adopted ~stalled ())
    0 t.shard_arr
