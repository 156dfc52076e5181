(** Per-handle feedback controller for the reclamation threshold.

    Sweeps report their outcome via {!observe}; the effective threshold
    moves multiplicatively within the [adaptive] bounds of the scheme's
    {!Smr_intf.config}: low sweep hit-rate widens it (x2, clamped),
    unreclaimed-gauge growth tightens it (/2, clamped).  With
    [adaptive = `Off] the threshold never moves (static behaviour is
    preserved exactly) but sweep-efficiency counters are still kept.
    The threshold is the only knob: the era schemes advance their era
    every [config.epoch_freq] retires, the constant {!Smr_intf.make_config}
    and the harness's memory bounds are computed from.

    Single-owner like the limbo buffer it guards; only {!threshold} is
    safe to read from other domains (it is atomic). *)

type t

(** [create ~config ~start] builds a controller whose initial threshold
    is [start] clamped into the configured bounds ([start] itself when
    [config.adaptive] is [`Off]). *)
val create : config:Smr_intf.config -> start:int -> t

(** Current effective threshold (one atomic load — retire-path cheap). *)
val threshold : t -> int

(** [observe t ~scanned ~reclaimed ~gauge] reports one sweep: how many
    limbo nodes it examined, how many it freed, and the shared
    unreclaimed gauge after the sweep.  Applies the control law and
    updates the efficiency counters.  Allocation-free. *)
val observe : t -> scanned:int -> reclaimed:int -> gauge:int -> unit

(** Gauge-only variant for batch dispatch (Hyaline): growth tightens the
    batch size, otherwise it widens back.  Allocation-free. *)
val observe_dispatch : t -> gauge:int -> unit

(** [set_pressure t on] is the overload hook for a service tier above the
    scheme: while set, {!threshold} reports the minimum bound — sweeps
    run as often as the configuration allows — without disturbing the
    stored controller state, which resumes where it left off when the
    pressure is released.  A no-op for static ([`Off]) configs, whose bounds are
    degenerate.  Safe to call from any domain. *)
val set_pressure : t -> bool -> unit

(** Apply {!set_pressure} to every registered controller of a scheme's
    per-tid array (the shared [S.set_pressure] implementation). *)
val set_pressure_array : t option array -> bool -> unit

(** Aggregate the per-tid controllers of one scheme instance into stats
    rows (threshold max, counter sums); [[]] when every slot is [None]. *)
val stats_of_array : t option array -> (string * int) list
