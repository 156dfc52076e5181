(* Fault injection / detection for the simulated manual allocator.

   In the paper's C/C++ setting, touching a reclaimed node is a SEGFAULT.
   Here a reclaimed node is poisoned via its header state, and dereferencing
   it raises [Use_after_free] instead.  The check is always on: it is what
   makes an unsafe traversal fail the way it would in C. *)

exception Use_after_free of string

let fail what = raise (Use_after_free what)
