(* Per-shard service counters.

   Each (shard, tid) pair owns one cell in the padded arrays, so the hot
   path is a plain uncontended [Atomic.incr] on a cache line no other
   domain writes; the coordinator's sample loop and the final report read
   across cells.  Flush-occupancy histograms and TTL-expiry counts are
   owner-written plain arrays, merged only after workers have joined. *)

type t = {
  shards : int;
  threads : int;
  cap : int;  (* batch capacity: occupancy histogram upper bucket *)
  ops : int Memory.Padded.t;  (* shards * threads cells *)
  hits : int Memory.Padded.t;
  occ : int array array;  (* occ.(tid).(size) = flushes of that size *)
  expired : int array;  (* per tid *)
  queued : int Memory.Padded.t;
      (* shards * threads cells: live batched-write backlog — incremented
         at enqueue, bulk-decremented at dispatch.  The coordinator sums a
         shard's column as the queue-occupancy input of the pressure
         ratio, so unlike [occ] (post-join histogram) this one must be a
         cross-domain-readable gauge. *)
  shed_ttl : int array; (* per tid: TTL writes rejected at Degraded_ttl+ *)
  shed_write : int array; (* per tid: writes rejected at Degraded_all *)
  deadline_rejects : int array; (* per tid: requests refused as expired *)
  retries : int array; (* per tid: backoff re-submissions after `Overload *)
}

let create ~shards ~threads ~batch_capacity =
  if shards <= 0 || threads <= 0 then
    invalid_arg "Stats.create: shards and threads must be positive";
  if batch_capacity <= 0 then
    invalid_arg "Stats.create: batch_capacity must be positive";
  {
    shards;
    threads;
    cap = batch_capacity;
    ops = Memory.Padded.create (shards * threads) (fun _ -> 0);
    hits = Memory.Padded.create (shards * threads) (fun _ -> 0);
    occ = Array.init threads (fun _ -> Array.make (batch_capacity + 1) 0);
    expired = Array.make threads 0;
    queued = Memory.Padded.create (shards * threads) (fun _ -> 0);
    shed_ttl = Array.make threads 0;
    shed_write = Array.make threads 0;
    deadline_rejects = Array.make threads 0;
    retries = Array.make threads 0;
  }

let idx t ~shard ~tid = (shard * t.threads) + tid

let record t ~shard ~tid ~hit =
  let i = idx t ~shard ~tid in
  Memory.Padded.incr t.ops i;
  if hit then Memory.Padded.incr t.hits i

(* One whole dispatched group at once: two fetch-and-adds instead of up
   to [2 * ops] increments — the batched path amortises its accounting
   the same way it amortises bracket entry. *)
let record_bulk t ~shard ~tid ~ops ~hits =
  let i = idx t ~shard ~tid in
  ignore (Memory.Padded.fetch_and_add t.ops i ops);
  if hits > 0 then ignore (Memory.Padded.fetch_and_add t.hits i hits)

let record_flush t ~tid ~occupancy =
  let o = t.occ.(tid) in
  let b = if occupancy > t.cap then t.cap else occupancy in
  o.(b) <- o.(b) + 1

let record_expired t ~tid = t.expired.(tid) <- t.expired.(tid) + 1

(* Backlog gauge: one uncontended padded incr per enqueue, one
   fetch-and-add of [-n] per dispatch — same cost class as [record]. *)
let record_queued t ~shard ~tid =
  Memory.Padded.incr t.queued (idx t ~shard ~tid)

let record_dispatched t ~shard ~tid ~n =
  if n > 0 then
    ignore (Memory.Padded.fetch_and_add t.queued (idx t ~shard ~tid) (-n))

let queued_depth t ~shard =
  let total = ref 0 in
  for tid = 0 to t.threads - 1 do
    total := !total + Memory.Padded.get t.queued (idx t ~shard ~tid)
  done;
  !total

let record_shed t ~tid ~ttl =
  if ttl then t.shed_ttl.(tid) <- t.shed_ttl.(tid) + 1
  else t.shed_write.(tid) <- t.shed_write.(tid) + 1

let record_deadline_reject t ~tid =
  t.deadline_rejects.(tid) <- t.deadline_rejects.(tid) + 1

let record_retry t ~tid = t.retries.(tid) <- t.retries.(tid) + 1
let shed_ttl_total t = Array.fold_left ( + ) 0 t.shed_ttl
let shed_write_total t = Array.fold_left ( + ) 0 t.shed_write
let shed_total t = shed_ttl_total t + shed_write_total t
let deadline_reject_total t = Array.fold_left ( + ) 0 t.deadline_rejects
let retry_total t = Array.fold_left ( + ) 0 t.retries

let per_shard t =
  Array.init t.shards (fun shard ->
      let ops = ref 0 and hits = ref 0 in
      for tid = 0 to t.threads - 1 do
        ops := !ops + Memory.Padded.get t.ops (idx t ~shard ~tid);
        hits := !hits + Memory.Padded.get t.hits (idx t ~shard ~tid)
      done;
      (!ops, !hits))

let total_ops t =
  Array.fold_left (fun acc (ops, _) -> acc + ops) 0 (per_shard t)

let occupancy t =
  let merged = Array.make (t.cap + 1) 0 in
  Array.iter
    (fun o -> Array.iteri (fun s n -> merged.(s) <- merged.(s) + n) o)
    t.occ;
  let out = ref [] in
  for s = t.cap downto 0 do
    if merged.(s) > 0 then out := (s, merged.(s)) :: !out
  done;
  !out

let expired_total t = Array.fold_left ( + ) 0 t.expired
