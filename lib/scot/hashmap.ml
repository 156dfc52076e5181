(* Lock-free hash set: an array of SCOT Harris lists (§2.3, §6.2 — "hash
   maps are simply arrays of Harris' or Harris-Michael lists").

   All buckets share one SMR instance and a thread registers on it once:
   every bucket handle of a map handle is built on that one registration
   (one limbo, one set of hazard slots — a thread runs one bucket
   operation at a time), so the map's unreclaimed memory is bounded like
   one list's, whatever the bucket count.  Each bucket list owns its node
   pool.  Since the buckets are Harris lists
   with SCOT, the whole map is compatible with HP/HE/IBR/Hyaline-1S — and
   every protected load goes through the bucket list's branded bracket, so
   the map inherits the typed-guard discipline transitively. *)

let slots_needed = Harris_list.slots_needed

module Make (S : Smr.Smr_intf.S) = struct
  module L = Harris_list.Make (S)

  type t = { smr : S.t; buckets : L.t array; nbuckets : int }

  (* [apply_batch]'s same-key coalescing memo: the key and resulting
     membership of the LATEST op of the current dispatch — single-owner
     scratch, never valid across batches (other threads may mutate
     between brackets).  One slot, not a table: only a contiguous
     same-key run may coalesce (see [apply_batch_body]). *)
  type handle = {
    t : t;
    s : S.th;  (* the one registration every bucket handle shares *)
    hs : L.handle array;
    mutable last_key : int;  (* key of the latest op this dispatch *)
    mutable last_mem : bool;  (* that key's membership after the op *)
    mutable last_valid : bool;
    (* [apply_batch]'s resume cursor: index of the first request not yet
       dispatched.  Survives a bracket restart after a neutralization so
       already-linearized requests are not re-executed. *)
    mutable batch_pos : int;
  }

  let create ?(buckets = 64) ~smr ~threads () =
    if buckets <= 0 then invalid_arg "Hashmap.create: buckets must be positive";
    {
      smr;
      buckets =
        Array.init buckets (fun _ -> L.create ~smr ~threads ());
      nbuckets = buckets;
    }

  let handle t ~tid =
    let s = S.register t.smr ~tid in
    {
      t;
      s;
      hs = Array.map (fun b -> L.handle_on b s) t.buckets;
      last_key = 0;
      last_mem = false;
      last_valid = false;
      batch_pos = 0;
    }

  (* Fibonacci hashing spreads consecutive keys across buckets. *)
  let bucket_of t key = abs (key * 0x9E3779B97F4A7C5) mod t.nbuckets

  let insert h key = L.insert h.hs.(bucket_of h.t key) key
  let delete h key = L.delete h.hs.(bucket_of h.t key) key
  let search h key = L.search h.hs.(bucket_of h.t key) key

  (* Single-bracket batch dispatch: execute every request in the buffer
     under ONE [start_op]/[end_op] — one reservation publish for the
     whole group instead of one per op (the store tier's amortization).
     All bucket handles share one registration, so the bracket covers
     every body; requests execute sequentially, each reusing the hazard
     slots of the previous one exactly as back-to-back brackets would. *)
  let apply_batch_body =
    {
      Smr.Smr_intf.op2 =
        (fun tok h (b : Batch_op.buf) ->
          (* Same-key coalescing, CONTIGUOUS runs only: a repeat that
             immediately follows its predecessor (no other physical op
             from this batch in between) may linearize immediately
             after it — nothing this thread did separates them, so the
             pair can always be placed adjacently in a linearization
             that keeps the batch in program order.  At that point a
             get just reports the memoised membership, a put on a
             present key is a failed no-op, and a delete on an absent
             key is a failed no-op; none of the three needs a
             traversal.  A physical op on a DIFFERENT key invalidates
             the memo: its result can pin concurrent external
             operations between the predecessor and a later same-key
             repeat (e.g. a failed put proves an external put
             linearized first, and real time may order an external
             delete of the memoised key before that external put), so
             answering the repeat from the memo would deliver results
             no program-order linearization explains. *)
          (* On a neutralization restart, resume at [h.batch_pos]:
             requests before it already linearized and stored their
             results.  The memo is dropped — the aborted attempt
             linearized nothing, so coalescing correctness is intact. *)
          h.last_valid <- false;
          let start = h.batch_pos in
          for i = start to b.Batch_op.n - 1 do
            let key = b.Batch_op.keys.(i) in
            let kind = b.Batch_op.kinds.(i) in
            let known = h.last_valid && h.last_key = key in
            if
              known
              && (if kind = Batch_op.get then true
                  else if kind = Batch_op.put then h.last_mem
                  else not h.last_mem)
            then
              (* Coalesced: the memo is unchanged, the run continues. *)
              b.Batch_op.results.(i) <-
                (if kind = Batch_op.get then h.last_mem else false)
            else begin
              let lh = h.hs.(bucket_of h.t key) in
              let r =
                if kind = Batch_op.get then
                  L.search_body.Smr.Smr_intf.op2 tok lh key
                else if kind = Batch_op.put then
                  L.insert_body.Smr.Smr_intf.op2 tok lh key
                else L.delete_body.Smr.Smr_intf.op2 tok lh key
              in
              b.Batch_op.results.(i) <- r;
              (* Membership after the op: get reports it, a put leaves
                 the key present, a delete leaves it absent. *)
              h.last_key <- key;
              h.last_mem <-
                (if kind = Batch_op.get then r else kind = Batch_op.put);
              h.last_valid <- true
            end;
            h.batch_pos <- i + 1
          done;
          h.last_valid <- false);
    }

  let apply_batch h (b : Batch_op.buf) =
    (* Validate before entering: a raise inside the bracket deliberately
       skips [end_op] (crash semantics), which a bad key must not trigger. *)
    for i = 0 to b.Batch_op.n - 1 do
      if b.Batch_op.keys.(i) >= max_int then
        invalid_arg "Hashmap.apply_batch: key must be < max_int"
    done;
    h.batch_pos <- 0;
    if b.Batch_op.n > 0 then S.with_op2 h.s apply_batch_body h b

  let quiesce h = S.flush h.s

  (* Crash recovery (see [Harris_list.recover]): one registration to
     deactivate, replace, adopt from and sweep, whatever the bucket count. *)
  let recover (h : handle) =
    S.deactivate h.s;
    let fresh = handle h.t ~tid:(S.tid h.s) in
    S.adopt ~victim:h.s ~into:fresh.s;
    S.flush fresh.s;
    fresh

  let size t = Array.fold_left (fun acc b -> acc + L.size b) 0 t.buckets
  let restarts t = Array.fold_left (fun acc b -> acc + L.restarts b) 0 t.buckets

  let elements t =
    List.sort compare
      (Array.fold_left (fun acc b -> L.to_list b @ acc) [] t.buckets)

  let check_invariants t = Array.iter L.check_invariants t.buckets
end
