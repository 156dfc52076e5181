(* Bracket-amortisation microbenchmark for the store's batched dispatch.

   Isolates what `scotbench serve` measures end-to-end: the fixed
   per-operation SMR bracket cost (start_op/end_op) that apply_batch
   amortises across a group, with everything else stripped away — no
   workload drawing, no routing, no service accounting.  One domain, one
   shard, a fixed key stream:

     per-op   : N x (search under its own bracket)
     batch=K  : N/K x (apply_batch of K gets under one bracket)

   The batch=K ns/op converges on the pure traversal cost as K grows;
   the gap to per-op is the bracket cost each scheme charges per
   operation.

   Usage: store_amort [--duration SECS] [--range N] [--buckets N]
                      [--schemes A,B,...]                               *)

module B = Scot.Batch_op

let duration = ref 0.5
let range = ref 8192
let buckets = ref 256
let schemes = ref "EBR,HE,IBR,HLN,HP"
let now = Unix.gettimeofday

let time_ns_per_op f =
  (* Warm up, then time whole passes for at least [duration] seconds. *)
  ignore (f ());
  let t0 = now () in
  let ops = ref 0 in
  while now () -. t0 < !duration do
    ops := !ops + f ()
  done;
  (now () -. t0) *. 1e9 /. float_of_int !ops

let () =
  let spec =
    [
      ("--duration", Arg.Set_float duration, "seconds per timed cell");
      ("--range", Arg.Set_int range, "key range");
      ("--buckets", Arg.Set_int buckets, "hash buckets");
      ("--schemes", Arg.Set_string schemes, "comma-separated schemes");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad a)) "store_amort [options]";
  let range = !range in
  let keys =
    (* Fixed xorshift stream: identical key sequence for every cell. *)
    let rng = Harness.Workload.Rng.create ~seed:0xA5A5 in
    Array.init 4096 (fun _ -> Harness.Workload.Rng.int rng range)
  in
  Printf.printf "%-6s  %10s  %10s  %10s  %10s  %8s\n" "scheme" "per-op"
    "batch=8" "batch=64" "ns saved" "speedup";
  List.iter
    (fun name ->
      let scheme = Smr.Registry.find_exn (String.trim name) in
      let shard =
        Scotstore.Shard.create ~buckets:!buckets
          ~backend:Scotstore.Shard.Hashmap ~scheme ~threads:1 ()
      in
      Array.iter
        (fun k -> ignore (shard.Scotstore.Shard.insert ~tid:0 k))
        (Harness.Workload.prefill_keys ~range ~seed:0x5eed);
      let n = Array.length keys in
      let per_op () =
        for i = 0 to n - 1 do
          ignore (shard.Scotstore.Shard.search ~tid:0 keys.(i))
        done;
        n
      in
      let batched cap =
        let buf = B.create ~capacity:cap in
        fun () ->
          let i = ref 0 in
          while !i < n do
            let stop = min n (!i + cap) in
            while !i < stop do
              B.push buf ~kind:B.get ~key:keys.(!i);
              incr i
            done;
            shard.Scotstore.Shard.apply_batch ~tid:0 buf;
            B.clear buf
          done;
          n
      in
      let p = time_ns_per_op per_op in
      let b8 = time_ns_per_op (batched 8) in
      let b64 = time_ns_per_op (batched 64) in
      Printf.printf "%-6s  %8.1fns  %8.1fns  %8.1fns  %8.1fns  %7.2fx\n%!"
        name p b8 b64 (p -. b64) (p /. b64))
    (String.split_on_char ',' !schemes)
