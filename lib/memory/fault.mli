(** Use-after-free detection for the simulated manual allocator.

    The paper's failure mode for unsafe optimistic traversals is a SEGFAULT
    (Figure 2).  Our substitute: reclaimed nodes are poisoned, and touching
    one raises {!Use_after_free}. *)

exception Use_after_free of string

(** [fail what] raises [Use_after_free what]. *)
val fail : string -> 'a
