(** Monotonic time for everything that measures or waits: soak phase
    clocks and samples, supervisor heartbeats, stall and park timeouts,
    request deadlines and per-op latency.  CLOCK_MONOTONIC never steps,
    so a wall-clock adjustment cannot expire every deadline at once.
    The origin is arbitrary: only differences are meaningful. *)

val ns : unit -> int
(** Nanoseconds; allocation-free. *)

val now : unit -> float
(** Seconds. *)
