(** Request buffer for single-bracket batch dispatch.

    A {!buf} groups pending set operations (op code, key, result slot)
    for a structure's [apply_batch], which executes the whole group
    under one [start_op]/[end_op] bracket.  Single-owner and reusable:
    below capacity {!push} allocates nothing; {!clear} resets the live
    prefix without touching the arrays. *)

type buf = {
  mutable n : int;  (** live prefix of the arrays *)
  mutable kinds : int array;  (** {!get} / {!put} / {!del} per element *)
  mutable keys : int array;
  mutable results : bool array;
      (** written by [apply_batch]: found / inserted / removed *)
}

(** Op codes (ints so the arrays stay unboxed). *)

val get : int

val put : int

val del : int

val create : capacity:int -> buf
(** Raises [Invalid_argument] when [capacity <= 0]; the buffer still
    grows past it on demand (doubling). *)

val length : buf -> int

val capacity : buf -> int

val is_empty : buf -> bool

val clear : buf -> unit
(** Drop all pending elements (O(1); arrays are retained). *)

val push : buf -> kind:int -> key:int -> unit
