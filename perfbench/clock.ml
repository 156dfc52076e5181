(* Monotonic nanosecond clock, read without allocating.

   The stub is the one [bechamel.monotonic_clock] ships (CLOCK_MONOTONIC
   via clock_gettime); declaring the external here with an unboxed result
   keeps every read allocation-free even where [Monotonic_clock.now] is
   not inlined, so timing an operation adds no minor words to it. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now () = Int64.to_int (now_ns ())

(* Cost of one clock read: the median gap between back-to-back reads.
   Sampled spans subtract it so a ~10 ns call is not read as ~30 ns. *)
let overhead_ns =
  lazy
    (let n = 2001 in
     let gaps =
       Array.init n (fun _ ->
           let a = now () in
           let b = now () in
           b - a)
     in
     Array.sort compare gaps;
     gaps.(n / 2))

let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9
