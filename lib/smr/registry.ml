(* Name -> scheme lookup used by the benchmark harness and CLI. *)

type scheme = (module Smr_intf.S)

let all : scheme list =
  [
    (module Nr);
    (module Ebr);
    (module Hp);
    (module Hp_opt);
    (module He);
    (module Ibr);
    (module Hyaline);
    (module Debra);
  ]

let capabilities (module S : Smr_intf.S) = S.capabilities

let robust_schemes =
  List.filter (fun (module S : Smr_intf.S) -> S.capabilities.robust) all

let neutralizing_schemes =
  List.filter (fun (module S : Smr_intf.S) -> S.capabilities.neutralizing) all

let names = List.map (fun (module S : Smr_intf.S) -> S.name) all

let lookup name =
  Lookup.find ~name_of:(fun (module S : Smr_intf.S) -> S.name) all name

let find name = Result.to_option (lookup name)
let find_exn name = Lookup.to_exn ~what:"SMR scheme" (lookup name)
