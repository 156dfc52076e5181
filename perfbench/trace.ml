(* Per-domain trace recorders: counters and spans kept at the layer
   boundaries the benchmark can see from outside the library.

   A recorder belongs to one tid and is only written by the domain that
   drives that tid, so every update is a plain store.  Spans go to a
   per-recorder ring (name, start, end, parent) that is written out when
   the run ends; the per-layer metrics come from the counters, which
   cover every span, not just the ones still in the ring.

   Span tree of one request:

     request (load generator)
       bracket (Traced.with_op, ...)      one per structure op, or per
         body (the structure's code)      batched shard group
           protect (every [protect_period]-th call)
           retire (every call, including any pass it triggers)

   Counters live in one padded [int array] per recorder so two domains
   never write the same cache line. *)

let max_tids = 4
let ring_bits = 15
let ring_cap = 1 lsl ring_bits
let stack_cap = 8
let protect_period = 16

(* Span names. *)
let sp_request = 0
let sp_bracket = 1
let sp_body = 2
let sp_protect = 3
let sp_retire = 4
let span_names = [| "request"; "bracket"; "body"; "protect"; "retire" |]

(* Request kinds, shared with the load generator. *)
let k_read = 0
let k_insert = 1
let k_delete = 2

(* Counter slots.  [pad] words on either side keep the hot slots off any
   cache line shared with a neighbouring allocation. *)
let pad = 16
let c_depth = pad
let c_next_id = pad + 1
let c_kind = pad + 2
let c_brackets = pad + 3
let c_bracket_ns = pad + 4
let c_body_runs = pad + 5
let c_body_ns = pad + 6
let c_protects = pad + 7
let c_protect_samples = pad + 8
let c_protect_ns = pad + 9
let c_retires = pad + 10
let c_retire_ns = pad + 11
let c_allocs = pad + 12
let c_requests = pad + 13 (* + kind *)
let c_request_ns = pad + 16 (* + kind *)
let c_kind_bracket_ns = pad + 19 (* + kind *)
let c_kind_struct_ops = pad + 22 (* + kind *)
let c_last = pad + 25
let counters = c_last + pad

type recorder = {
  c : int array;
  names : int array;
  starts : int array;
  ends : int array;
  parents : int array;
  stack : int array;
}

let make () =
  {
    c = Array.make counters 0;
    names = Array.make ring_cap 0;
    starts = Array.make ring_cap 0;
    ends = Array.make ring_cap 0;
    parents = Array.make ring_cap 0;
    stack = Array.make stack_cap 0;
  }

let recorders = Array.init max_tids (fun _ -> make ())

let recorder tid =
  if tid < 0 || tid >= max_tids then
    invalid_arg (Printf.sprintf "Trace.recorder: tid %d >= %d" tid max_tids);
  recorders.(tid)

(* Owner-only: start a fresh measurement on this recorder. *)
let reset r = Array.fill r.c 0 counters 0

let[@inline] get r i = Array.unsafe_get r.c i
let[@inline] bump r i d = Array.unsafe_set r.c i (Array.unsafe_get r.c i + d)

(* Spans that can have children are pushed on a small stack so their
   children know their parent; leaves are recorded at close only. *)
let[@inline] fresh_id r =
  let id = get r c_next_id in
  Array.unsafe_set r.c c_next_id (id + 1);
  id

let open_span r =
  let id = fresh_id r in
  let d = get r c_depth in
  if d < stack_cap then r.stack.(d) <- id;
  Array.unsafe_set r.c c_depth (d + 1);
  id

let parent_at r d = if d > 0 && d <= stack_cap then r.stack.(d - 1) else -1

let record r id name t0 t1 parent =
  let slot = id land (ring_cap - 1) in
  Array.unsafe_set r.names slot name;
  Array.unsafe_set r.starts slot t0;
  Array.unsafe_set r.ends slot t1;
  Array.unsafe_set r.parents slot parent

let close_span r id name t0 t1 =
  let d = max 0 (get r c_depth - 1) in
  Array.unsafe_set r.c c_depth d;
  record r id name t0 t1 (parent_at r d)

let leaf r name t0 t1 = record r (fresh_id r) name t0 t1 (parent_at r (get r c_depth))

(* {2 Load-generator side} *)

let request_begin r kind =
  Array.unsafe_set r.c c_depth 0;
  Array.unsafe_set r.c c_kind kind;
  open_span r

let request_end r id kind t0 t1 ~struct_ops =
  close_span r id sp_request t0 t1;
  bump r (c_requests + kind) 1;
  bump r (c_request_ns + kind) (t1 - t0);
  bump r (c_kind_struct_ops + kind) struct_ops

(* {2 Scheme-wrapper side} *)

let bracket_end r id t0 t1 =
  close_span r id sp_bracket t0 t1;
  bump r c_brackets 1;
  bump r c_bracket_ns (t1 - t0);
  bump r (c_kind_bracket_ns + get r c_kind) (t1 - t0)

let body_end r id t0 t1 =
  close_span r id sp_body t0 t1;
  bump r c_body_runs 1;
  bump r c_body_ns (t1 - t0)

(* {2 Run-end aggregation} *)

(* Snapshot of one recorder's counters, taken by its owner when its
   measurement ends (later ops, e.g. the run-end checks on tid 0, must not
   leak into the window). *)
let snapshot r = Array.copy r.c

(* Sum of one counter over snapshots. *)
let sum snaps i = List.fold_left (fun acc s -> acc + s.(i)) 0 snaps

(* Write every span still in the rings as tab-separated lines:
   tid, id, name, start_ns, end_ns, parent_id (-1 for a root).  Times
   are relative to [origin].  Returns the number of spans written. *)
let dump ~tids ~origin path =
  let oc = open_out path in
  output_string oc "tid\tid\tname\tstart_ns\tend_ns\tparent\n";
  let n = ref 0 in
  List.iter (fun tid ->
    let r = recorders.(tid) in
    let last = get r c_next_id in
    for id = max 0 (last - ring_cap) to last - 1 do
      let slot = id land (ring_cap - 1) in
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" tid id
        span_names.(r.names.(slot))
        (r.starts.(slot) - origin)
        (r.ends.(slot) - origin)
        r.parents.(slot);
      incr n
    done) tids;
  close_out oc;
  !n
