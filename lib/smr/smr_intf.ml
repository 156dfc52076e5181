(* Common interface implemented by every SMR scheme (NR, EBR, HP, HPopt, HE,
   IBR, Hyaline-1S, DBR).

   The shape follows the tracker API of the benchmark the paper extends
   (Hazard Eras / IBR test harness): [start_op]/[end_op] bracket each
   data-structure operation, [protect] is the protected-load primitive (the
   paper's primitive of the same name), [dup] copies a protection between
   slots, and [retire] hands over an unlinked node for deferred
   reclamation.

   The protected load is polymorphic in the link value: HP validates by
   re-loading the same field, era-based schemes validate the node's birth
   era, EBR/NR just load.  This lets a single data-structure implementation
   (a functor over [S]) serve all schemes — exactly the paper's point that
   SCOT adapts the data structure and keeps the SMR scheme intact. *)

(* Raised by a neutralizing scheme (DBR) from inside a protected load or
   [start_op] when a reclaimer has posted a neutralization into this
   handle's announcement cell.  The {!Bracket} functor catches it — and
   only it — and restarts the operation body from the root with a fresh
   bracket; structure code never sees a half-finished traversal resume.
   Structures with pre-publish private state catch it to release that
   state and re-raise (see [Harris_list.insert_body]). *)
exception Neutralized

type reclaimable = {
  hdr : Memory.Hdr.t;
  free : int -> unit;
      (* [free tid] returns the node to its pool; [tid] is the *calling*
         thread (Hyaline-1S reclaims on any thread). *)
}

(* First-class field descriptor for the staged protected-load primitive.
   Built once per link type (a top-level constant in the data structure), it
   replaces the per-call [~load]/[~hdr_of] closures of [read]: the scheme
   stages whatever per-handle state it needs into a ['v reader] at handle
   time, and the steady-state [protect] captures no closure.  [hdr] is only
   called on values for which [is_null] is false. *)
type 'v desc = {
  is_null : 'v -> bool;
  hdr : 'v -> Memory.Hdr.t;
}

(* Clamp bounds for the adaptive threshold controller (Tuner).  The
   controller may move the effective limbo threshold (Hyaline: batch
   size) anywhere in [min_threshold, max_threshold]; [max_threshold] is
   the hard memory-side cap, the control law only picks a point inside. *)
type bounds = { min_threshold : int; max_threshold : int }

type adaptive = [ `Off | `On of bounds ]

type config = {
  limbo_threshold : int;
      (* R: a reclamation pass is attempted every R retire calls (128 in the
         paper's calibration).  With [adaptive = `On] this is only the
         starting point; the per-handle Tuner moves the effective value. *)
  epoch_freq : int;
      (* global epoch/era increment every this many retires (12 x threads in
         the paper's calibration).  Constant even with [adaptive = `On]:
         the bounds computed from it must describe the running code. *)
  batch_size : int; (* Hyaline-1S dispatch batch size. *)
  adaptive : adaptive;
      (* `Off: thresholds are static, exactly the pre-tuner behaviour.
         `On bounds: each handle runs a feedback controller that widens
         the threshold on empty sweeps and tightens it on gauge growth,
         clamped to [bounds]. *)
  neutralize_after : int;
      (* DBR only: how many epochs an announcement may lag the global
         epoch before a reclaimer posts a neutralization into it.  Small
         values restart laggards aggressively (tighter memory, more
         wasted traversal work); large values approach plain EBR. *)
}

let default_config ~threads =
  {
    limbo_threshold = 128;
    epoch_freq = 12 * threads;
    batch_size = 32;
    adaptive = `Off;
    neutralize_after = 4;
  }

(* Forward-compatible constructor: call sites name only the knobs they care
   about, so growing [config] (e.g. with chaos-related fields) does not
   break every record literal in tests and benchmarks.

   Every knob must be strictly positive: [epoch_freq = 0] divides by zero
   in the era schemes' retire path (and negative values never advance the
   era), [limbo_threshold = 0] spins a reclaim pass on every retire, and
   [batch_size = 0] dispatches empty Hyaline batches.  Rejecting them here
   turns a silent performance/correctness trap into an immediate
   [Invalid_argument] naming the field. *)
let positive_field name v =
  if v <= 0 then
    invalid_arg
      (Printf.sprintf "Smr_intf.make_config: %s must be positive (got %d)"
         name v);
  v

let make_config ?limbo_threshold ?epoch_freq ?batch_size ?adaptive
    ?neutralize_after ~threads () =
  let d = default_config ~threads:(positive_field "threads" threads) in
  let limbo_threshold =
    positive_field "limbo_threshold"
      (Option.value limbo_threshold ~default:d.limbo_threshold)
  in
  let batch_size =
    positive_field "batch_size" (Option.value batch_size ~default:d.batch_size)
  in
  (* A threshold below the batch size silently under-fills Hyaline-style
     batches: the pass fires before a batch is ever full, so dispatch
     degenerates to near-singleton batches.  Reject it loudly. *)
  if limbo_threshold < batch_size then
    invalid_arg
      (Printf.sprintf
         "Smr_intf.make_config: limbo_threshold (%d) must be >= batch_size \
          (%d)"
         limbo_threshold batch_size);
  let adaptive =
    match Option.value adaptive ~default:d.adaptive with
    | `Off -> `Off
    | `On b ->
        ignore (positive_field "adaptive min_threshold" b.min_threshold);
        if b.max_threshold < b.min_threshold then
          invalid_arg
            (Printf.sprintf
               "Smr_intf.make_config: adaptive max_threshold (%d) must be >= \
                min_threshold (%d)"
               b.max_threshold b.min_threshold);
        if b.min_threshold < batch_size then
          invalid_arg
            (Printf.sprintf
               "Smr_intf.make_config: adaptive min_threshold (%d) must be >= \
                batch_size (%d)"
               b.min_threshold batch_size);
        `On b
  in
  let epoch_freq =
    positive_field "epoch_freq" (Option.value epoch_freq ~default:d.epoch_freq)
  in
  let neutralize_after_given = Option.is_some neutralize_after in
  let neutralize_after =
    positive_field "neutralize_after"
      (Option.value neutralize_after ~default:d.neutralize_after)
  in
  (* A reclaimer posts to an announcement only once it lags the epoch by
     [neutralize_after] — a neutralization-latency window of roughly
     [neutralize_after * epoch_freq] retires that the laggard may pin
     before its restart can be requested.  Under an adaptive config,
     [max_threshold] is the memory-side cap the tuner is allowed to widen
     to; a window beyond it means the laggard can pin more than the cap
     admits before DBR's one robustness lever ever fires, silently
     forfeiting the robustness the caller asked for.  Only an explicitly
     chosen [neutralize_after] is checked: the default window is
     calibration-compatible (measurement configs park the era machinery
     with [epoch_freq = max_int]).  Compared by division — the product
     overflows for such configs. *)
  (match adaptive with
  | `On b
    when neutralize_after_given
         && neutralize_after > b.max_threshold / epoch_freq ->
      invalid_arg
        (Printf.sprintf
           "Smr_intf.make_config: neutralize_after (%d) x epoch_freq (%d) \
            exceeds the adaptive max_threshold (%d): neutralization could \
            never fire below the memory cap"
           neutralize_after epoch_freq b.max_threshold)
  | _ -> ());
  {
    limbo_threshold;
    epoch_freq;
    batch_size;
    adaptive;
    neutralize_after;
  }

(* {2 Scheme capabilities}

   What a scheme can and cannot promise, as one first-class record instead
   of the accreted optional surfaces it replaces (a [robust] flag here, a
   [recoverable] flag there, the [adopt_warning] hook for the one scheme
   where adoption is a no-op).  Matrix tests and benches select schemes by
   capability; nothing in the harness string-matches on scheme names to
   decide behaviour any more. *)
type capabilities = {
  robust : bool;
      (* Bounded memory with stalled threads (property (A) of the ERA
         theorem).  False only for NR and EBR. *)
  recoverable : bool;
      (* [deactivate]+[adopt] restore a bounded unreclaimed gauge after a
         crash.  False only for NR: leaked nodes stay leaked, so its
         [adopt] is a no-op and supervisors surface the leak themselves. *)
  neutralizing : bool;
      (* The scheme may abort a lagging operation from the outside: its
         brackets can raise {!Neutralized} at a checkpoint and restart the
         body.  True only for DBR. *)
  adaptive : bool;
      (* The scheme runs per-handle limbo thresholds through the {!Tuner}
         feedback controller when [config.adaptive] is [`On].  False only
         for NR (nothing to tune — it never sweeps). *)
}

(* {2 Typed guards: protection evidence at the type level}

   One class of use-after-free is a dereference of a node whose protection
   has lapsed.  The legacy [read]/[read_field] primitives below return plain
   ['v] values, so nothing stops a caller from keeping one past [end_op]
   and dereferencing freed memory — the poisoned-header check then catches
   it at *run time*, in tests only.  Guards move that check to the type
   system:

   - [with_op] brackets an operation and mints an ['op Guard.token] whose
     brand ['op] is universally quantified in the body (the rank-2 field of
     {!op0}..{!op3}), so the token — and everything branded with it —
     cannot escape the bracket: returning a guard, stashing it in an outer
     [ref], or capturing the token in an outer closure is a type error
     ("type variable 'op escapes its scope").
   - [protect] (the paper's primitive of the same name, Figure 1) is
     [read_field] returning a [('v, 'op) Guard.t] branded with the live
     token instead of a bare ['v].
   - [Guard.deref] is the only way back to the value, and it demands the
     matching live token — a guard that outlives its [end_op] has no token
     left that can unlock it: that bug class is unrepresentable.

   The paper's Figure-2 bug is not in that class: the traversal protects
   and dereferences a node inside its bracket, under the live token, but
   the node was reclaimed before the protection was published (its
   predecessor's link never changed, so the protection validated).  The
   structure's SCOT validation catches that; the poisoned header is the
   runtime backstop.

   The representation compiles away: a token is [unit] and a guard is the
   value itself (no wrapper block), so the branded fast paths allocate
   exactly as much as the legacy ones — nothing.

   Honest boundary: [deref] returns the raw value, and raw values are
   ordinary OCaml data — code can still copy a *value* out of the bracket.
   What the brand makes impossible is treating such a value as still
   *protected*: every protected hop must go through a live token.  (An
   existentially-typed closure can launder a deref thunk past the bracket;
   the lint and review, not the types, cover that corner.) *)
module Guard : sig
  type ('v, 'op) t
  (** A protected load result, branded with the operation that owns the
      protection.  Unboxed: erases to ['v] at run time. *)

  type 'op token
  (** Evidence of a live [start_op]/[end_op] bracket.  Unboxed: erases to
      [unit] at run time. *)

  val deref : ('v, 'op) t -> 'op token -> 'v
  (** The only dereference.  Requires the token of the bracket that issued
      the guard; any other bracket's token has a different brand. *)

  val embed : 'op token -> 'v -> ('v, 'op) t
  (** Implementor-side (scheme code): brand a freshly protected load.
      Branding a value that is {e not} protected forfeits the static
      guarantee — the lint keeps this constructor out of [lib/scot]. *)

  val mint : unit -> 'op token
  (** Implementor-side ({!Bracket} only): forge the bracket token.  Calling
      it anywhere else creates an unbranded skeleton key; the lint keeps it
      out of [lib/scot]. *)
end = struct
  type ('v, 'op) t = 'v
  type 'op token = unit

  let deref g () = g
  let embed () v = v
  let mint () = ()
end

(* Operation bodies for the branded bracket, indexed by arity.  The rank-2
   quantification of ['op] lives in the record field; passing the handle,
   key, etc. as explicit arguments (instead of capturing them) lets every
   body be a single top-level constant, so a [with_op*] call allocates
   nothing — required for the 0.00 words/op fast paths. *)
type 'r op0 = { op0 : 'op. 'op Guard.token -> 'r }
type ('a, 'r) op1 = { op1 : 'op. 'op Guard.token -> 'a -> 'r }
type ('a, 'b, 'r) op2 = { op2 : 'op. 'op Guard.token -> 'a -> 'b -> 'r }

type ('a, 'b, 'c, 'r) op3 = {
  op3 : 'op. 'op Guard.token -> 'a -> 'b -> 'c -> 'r;
}

module type S = sig
  val name : string

  (** What this scheme promises; see {!capabilities}. *)
  val capabilities : capabilities

  type t
  type th

  val create : ?config:config -> threads:int -> slots:int -> unit -> t

  (** One registration per thread id; the handle is not thread-safe and must
      only be used by its owner.  Raises [Invalid_argument] if [tid] already
      holds a live (not deactivated) handle on this instance. *)
  val register : t -> tid:int -> th

  val tid : th -> int
  val start_op : th -> unit
  val end_op : th -> unit

  (** Per-handle staged state for the protected load.  [reader th desc] is
      built once per handle (and link type): the scheme stages whatever
      per-handle state it needs so the steady-state {!protect} is a direct
      call with no closure capture and no allocation. *)
  type 'v reader

  val reader : th -> 'v desc -> 'v reader

  (** {2 Branded operation bracket}

      [with_op th body] runs [start_op th; body.op0 token; end_op th] with a
      freshly minted token whose brand is universally quantified in [body] —
      guards issued against the token cannot leave the bracket (see
      {!Guard}).  The arity variants pass the operation's arguments
      explicitly so bodies can be top-level constants (no per-op closure).

      The bracket catches exactly one exception: {!Neutralized}, raised by
      a neutralizing scheme's checkpoints when a reclaimer aborted this
      lagging operation.  The bracket acknowledges the neutralization
      (clearing the handle's reservations) and restarts the body from the
      root under a fresh bracket — each retry mints a new token, so a guard
      from an aborted attempt cannot be dereferenced in the next one.
      Bodies must therefore be restartable up to their linearization point
      and bracket any post-linearization protected loads in
      [mask]/[unmask]; pre-publish private state is released by catching
      {!Neutralized} and re-raising (see [Harris_list.insert_body]).

      Everything else still deliberately escapes {e without} [end_op]: an
      operation that dies mid-traversal (e.g. {!Memory.Fault.Use_after_free},
      or the chaos engine's [Crashed]) must leave its reservations
      published — the poisoned-handle state the crash-recovery protocol
      starts from.  Bodies that want cleanup-on-raise catch, return the
      exception, and re-raise outside (see [Harris_list.search_hooked]). *)

  val protect :
    'v reader -> 'op Guard.token -> slot:int -> 'v Atomic.t -> ('v, 'op) Guard.t
  (** [read_field] returning branded evidence: the paper's [protect]
      (Figure 1), with the guarantee that the result is only
      dereferenceable while the issuing bracket is live. *)

  val with_op : th -> 'r op0 -> 'r
  val with_op1 : th -> ('a, 'r) op1 -> 'a -> 'r
  val with_op2 : th -> ('a, 'b, 'r) op2 -> 'a -> 'b -> 'r
  val with_op3 : th -> ('a, 'b, 'c, 'r) op3 -> 'a -> 'b -> 'c -> 'r

  (** [mask th] / [unmask th] bracket a non-restartable completion section:
      work after an operation's linearization point that still performs
      protected loads (e.g. a skiplist insert linking its upper levels
      after the level-0 publish).  Between the two, a pending
      neutralization is deferred — checkpoints pass and the laggard keeps
      its epoch pinned — instead of aborting an operation that can no
      longer be undone.  Plain mutable stores on the handle's own padded
      cell: no allocation, no-ops for non-neutralizing schemes.  [end_op],
      the bracket's restart path and [deactivate] all clear the mask, so a
      crash inside a masked section cannot wedge the handle. *)
  val mask : th -> unit

  val unmask : th -> unit

  (** [dup th ~src ~dst] copies the protection in slot [src] to slot [dst]
      (the paper's [dup], Figure 1).  No-op for schemes without per-slot
      state. *)
  val dup : th -> src:int -> dst:int -> unit

  (** Drop the protection held in one slot. *)
  val clear_slot : th -> slot:int -> unit

  (** Allocation hook: stamps the birth era for era-based schemes. *)
  val on_alloc : th -> Memory.Hdr.t -> unit

  (** Hand an unlinked node to the scheme.  The node must be Live; the
      scheme marks it Retired and frees it once provably unreachable. *)
  val retire : th -> reclaimable -> unit

  (** Best-effort: run a reclamation pass now (used at shutdown and by
      tests); does not violate safety. *)
  val flush : th -> unit

  (** Number of retired-but-not-yet-reclaimed objects (Figures 10-12). *)
  val unreclaimed : t -> int

  (** Scheme-specific counters for reports.  Every scheme reports
      ["active_handles"]: tids holding a live handle (seats). *)
  val stats : t -> (string * int) list

  (** [set_pressure t on] is the overload hook for a service tier above:
      while set, every registered handle's {!Tuner} reports its most
      aggressive clamp (the minimum threshold), so sweeps run as often
      as the configuration allows.  Callable from any domain; a no-op
      for static configs and for schemes with nothing to tune (NR).
      Releasing the pressure resumes the controllers where they left
      off. *)
  val set_pressure : t -> bool -> unit

  (** {2 Handle lifecycle / crash recovery}

      A domain that dies between [start_op] and [end_op] leaves its
      reservations published (pinning memory forever under HP/HE/IBR,
      vetoing the epoch under EBR) and its limbo buffer orphaned.  The
      supervisor protocol is: once the owner domain is provably dead,
      [deactivate] the handle, [register] a replacement on the same tid,
      [adopt] the orphaned limbo into the replacement, and [flush] it. *)

  (** [deactivate th] unpublishes every reservation/era slot of a dead
      handle, marks its per-domain cells quiesced (Hyaline drains and
      releases the handle's batch references) and gives back its
      registration seat so the tid can be re-registered.  Idempotent.
      Must only be called once the owning domain has stopped running —
      from the owner itself or from a supervisor after the domain died;
      the handle must not be used for operations afterwards. *)
  val deactivate : th -> unit

  (** [adopt ~victim ~into] transfers the victim's limbo buffer (and its
      share of the unreclaimed gauge) into [into]'s limbo so the orphans
      are swept by [into]'s reclamation passes.  The victim must already
      be deactivated ([Invalid_argument] otherwise); [into]'s owner must
      not be running concurrently — adopt into a freshly registered
      replacement handle before its worker starts, or into a quiesced
      survivor. *)
  val adopt : victim:th -> into:th -> unit
end

(* Shared implementation of the branded bracket: every scheme [include]s
   this over its own [start_op]/[end_op]/[on_neutralized].
   [Guard.mint] erases to [unit], so the bracket adds no allocation over
   calling the two primitives by hand.

   The bracket is the once-per-operation half of the interface only.
   [protect] is per hop, so each scheme defines it itself as
   [Guard.embed tok (read_field r ~slot field)]: a functor body is compiled
   once, against an unknown argument, so a [protect] defined here would
   reach the scheme's load through one more indirect call on every hop.

   Each [with_op*] is a restart loop: {!Neutralized} — and only it — is
   caught (a match-exception case, not a try/finally), the scheme
   acknowledges via [on_neutralized] (withdrawing the handle's pin), and
   the body re-runs under a fresh bracket whose token carries a new brand,
   so guards cannot cross attempts.  Any other exception still skips
   [end_op] (crash semantics, see the interface comment). *)
module Bracket (B : sig
  type th

  val start_op : th -> unit
  val end_op : th -> unit

  val on_neutralized : th -> unit
  (* Acknowledge an observed neutralization: clear the handle's
     reservations and mask so the restarted attempt begins clean.  [Fun.id]
     of [end_op] for most schemes ([ignore] even — non-neutralizing
     checkpoints never raise); DBR withdraws its announcement. *)
end) =
struct
  (* [start_op] runs INSIDE the match-exception scope: its own checkpoint
     can observe a neutralization posted between the announce store and
     the check, and that raise must restart the bracket, not escape it. *)
  let rec with_op th (body : _ op0) =
    match
      B.start_op th;
      body.op0 (Guard.mint ())
    with
    | r ->
        B.end_op th;
        r
    | exception Neutralized ->
        B.on_neutralized th;
        with_op th body

  let rec with_op1 th (body : _ op1) a =
    match
      B.start_op th;
      body.op1 (Guard.mint ()) a
    with
    | r ->
        B.end_op th;
        r
    | exception Neutralized ->
        B.on_neutralized th;
        with_op1 th body a

  let rec with_op2 th (body : _ op2) a b =
    match
      B.start_op th;
      body.op2 (Guard.mint ()) a b
    with
    | r ->
        B.end_op th;
        r
    | exception Neutralized ->
        B.on_neutralized th;
        with_op2 th body a b

  let rec with_op3 th (body : _ op3) a b c =
    match
      B.start_op th;
      body.op3 (Guard.mint ()) a b c
    with
    | r ->
        B.end_op th;
        r
    | exception Neutralized ->
        B.on_neutralized th;
        with_op3 th body a b c
end
