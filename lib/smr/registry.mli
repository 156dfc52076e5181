(** Name -> scheme lookup used by the benchmark harness, CLI and tests. *)

type scheme = (module Smr_intf.S)

val all : scheme list
(** All eight schemes: the paper's seven in its order — NR, EBR, HP,
    HPopt, HE, IBR, HLN (Hyaline-1S) — plus the neutralizing DBR
    (DEBRA+). *)

val capabilities : scheme -> Smr_intf.capabilities
(** A scheme's capability record, without unpacking the module. *)

val robust_schemes : scheme list
(** The schemes with [capabilities.robust] — everything but NR and EBR. *)

val neutralizing_schemes : scheme list
(** The schemes with [capabilities.neutralizing] — currently only DBR. *)

val names : string list

val lookup : string -> (scheme, Lookup.error) result
(** Case-insensitive; the shared lookup the CLI, benchmarks and tests all
    route through ({!Harness.Instance.lookup_builder} is its twin). *)

val find : string -> scheme option
(** [Result.to_option] over {!lookup}. *)

val find_exn : string -> scheme
(** Raises [Invalid_argument] with the list of valid names. *)
