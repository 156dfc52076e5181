(* The stub is the one [bechamel.monotonic_clock] ships (clock_gettime
   on CLOCK_MONOTONIC); declaring the external with an unboxed result
   keeps every read allocation-free, so timing an operation adds no minor
   words to it. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] ns () = Int64.to_int (now_ns ())
let[@inline] now () = float_of_int (ns ()) *. 1e-9
