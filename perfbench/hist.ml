(* Log-linear latency histogram in nanoseconds: exact below 256 ns, then
   128 sub-buckets per power of two (under 0.8 % relative bucket width),
   up to 2^40 ns.  Recording is one index computation and an array
   increment; a histogram is single-owner. *)

let sub_bits = 7
let exact = 1 lsl (sub_bits + 1) (* 256: values below are their own bucket *)
let max_shift = 40 - sub_bits
let size = ((max_shift + 1) lsl sub_bits) + exact

type t = int array

let create () : t = Array.make size 0

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

let index v =
  if v < exact then if v < 0 then 0 else v
  else
    let shift = min max_shift (msb v 0 - sub_bits) in
    min (size - 1) ((shift lsl sub_bits) + (v lsr shift))

(* Lower bound and width of bucket [i]. *)
let bounds i =
  if i < exact then (float_of_int i, 1.)
  else
    let shift = (i lsr sub_bits) - 1 in
    let m = i - (shift lsl sub_bits) in
    (float_of_int (m lsl shift), float_of_int (1 lsl shift))

let[@inline] add (h : t) v =
  let i = index v in
  Array.unsafe_set h i (Array.unsafe_get h i + 1)

let count (h : t) = Array.fold_left ( + ) 0 h

(* The [q]-quantile (0 < q <= 1), interpolated linearly inside the
   bucket that holds rank [q * n], so it moves continuously with the data
   instead of snapping to bucket edges.  [nan] for an empty histogram. *)
let quantile (h : t) q =
  let n = count h in
  if n = 0 then Float.nan
  else
    let rank = Float.max 1. (q *. float_of_int n) in
    let rec go i before =
      let c = h.(i) in
      if c > 0 && float_of_int (before + c) >= rank then
        let lo, width = bounds i in
        lo +. (width *. (rank -. float_of_int before) /. float_of_int c)
      else if i = size - 1 then fst (bounds i)
      else go (i + 1) (before + c)
    in
    go 0 0
