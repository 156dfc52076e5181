(* Request buffer for single-bracket batch dispatch.

   A [buf] is a struct-of-arrays group of pending set operations (int op
   codes, keys, result slots) that a structure's [apply_batch] executes
   under ONE [start_op]/[end_op] bracket — one reservation publish per
   group instead of per operation.  Callers (the store tier's per-shard
   client buffers, [get_many] groups) own and reuse the buffer, so the
   steady state allocates nothing: [push] is three array stores and a
   counter bump below capacity, and growth doubles like the limbo
   buffers — a cold path only oversized [get_many] groups take. *)

type buf = {
  mutable n : int; (* live prefix of the arrays *)
  mutable kinds : int array;
  mutable keys : int array;
  mutable results : bool array;
}

(* Op codes kept as ints (not a variant) so the three arrays stay unboxed
   and a buffer slot never conses. *)
let get = 0
let put = 1
let del = 2

let create ~capacity =
  if capacity <= 0 then invalid_arg "Batch_op.create: capacity must be positive";
  {
    n = 0;
    kinds = Array.make capacity 0;
    keys = Array.make capacity 0;
    results = Array.make capacity false;
  }

let length b = b.n
let capacity b = Array.length b.kinds
let is_empty b = b.n = 0
let clear b = b.n <- 0

let grow b =
  let cap = 2 * Array.length b.kinds in
  let kinds = Array.make cap 0
  and keys = Array.make cap 0
  and results = Array.make cap false in
  Array.blit b.kinds 0 kinds 0 b.n;
  Array.blit b.keys 0 keys 0 b.n;
  Array.blit b.results 0 results 0 b.n;
  b.kinds <- kinds;
  b.keys <- keys;
  b.results <- results

let push b ~kind ~key =
  if b.n = Array.length b.kinds then grow b;
  b.kinds.(b.n) <- kind;
  b.keys.(b.n) <- key;
  b.results.(b.n) <- false;
  b.n <- b.n + 1
