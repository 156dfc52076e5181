(* Per-shard overload state machine.

   The signal is the shard's own SMR gauge (retired-but-unreclaimed
   nodes) plus the client-side batch backlog, scored against an
   operator-chosen budget:

     ratio = (gauge + queue_weight * queued) / budget

   The level ladder, worst first:

     Healthy      normal operation
     Pressured    mitigation: synchronous sweeps after every dispatch,
                  effective batch capacity halved
     Degraded_ttl load shedding, stage 1: TTL-carrying writes (cache
                  fills, expiring state) are rejected with [`Overload];
                  durable writes and all reads still flow
     Degraded_all load shedding, stage 2: every write is rejected; reads
                  still flow

   Ascent is immediate — one observation above a threshold jumps straight
   to the highest qualifying level, because the gauge can cross several
   thresholds within one sample period under a retire burst.  Descent is
   hysteretic: one level at a time, and only after [quiesce_samples]
   consecutive observations below [exit_margin] of the current level's
   entry threshold.  Without the margin and the dwell the shard would
   flap between shedding and admitting at the sample frequency, which is
   worse than either steady state (clients see an admission coin-flip).

   Concurrency: [level] is an atomic int read by every client on its
   write-admission path (one load).  Everything else — calm counter,
   transition log, peaks — belongs to the observing coordinator and is
   guarded by a mutex only so that multi-coordinator callers (tests) stay
   defined; [observe] is called at sample frequency, so the lock is
   nowhere near any hot path. *)

type level = Healthy | Pressured | Degraded_ttl | Degraded_all

let level_rank = function
  | Healthy -> 0
  | Pressured -> 1
  | Degraded_ttl -> 2
  | Degraded_all -> 3

let level_of_rank = function
  | 0 -> Healthy
  | 1 -> Pressured
  | 2 -> Degraded_ttl
  | _ -> Degraded_all

let level_name = function
  | Healthy -> "healthy"
  | Pressured -> "pressured"
  | Degraded_ttl -> "degraded-ttl"
  | Degraded_all -> "degraded-all"

type config = {
  budget : int; (* node budget the thresholds are fractions of *)
  enter_pressured : float;
  enter_degraded : float; (* >= enter_pressured *)
  enter_shed_all : float; (* >= enter_degraded *)
  exit_margin : float; (* descend below margin * entry threshold *)
  quiesce_samples : int; (* consecutive calm observations per descent *)
  queue_weight : float; (* batch-backlog contribution to the ratio *)
}

let make_config ?(enter_pressured = 0.5) ?(enter_degraded = 0.75)
    ?(enter_shed_all = 1.0) ?(exit_margin = 0.5) ?(quiesce_samples = 3)
    ?(queue_weight = 1.0) ~budget () =
  if budget <= 0 then
    invalid_arg
      (Printf.sprintf "Pressure.make_config: budget must be positive (got %d)"
         budget);
  if not (0.0 < enter_pressured && enter_pressured <= enter_degraded) then
    invalid_arg "Pressure.make_config: need 0 < enter_pressured <= enter_degraded";
  if enter_shed_all < enter_degraded then
    invalid_arg "Pressure.make_config: need enter_shed_all >= enter_degraded";
  if not (0.0 < exit_margin && exit_margin <= 1.0) then
    invalid_arg "Pressure.make_config: exit_margin must be in (0, 1]";
  if quiesce_samples < 1 then
    invalid_arg "Pressure.make_config: quiesce_samples must be >= 1";
  if queue_weight < 0.0 then
    invalid_arg "Pressure.make_config: queue_weight must be >= 0";
  {
    budget;
    enter_pressured;
    enter_degraded;
    enter_shed_all;
    exit_margin;
    quiesce_samples;
    queue_weight;
  }

type transition = {
  tr_t : float; (* observation time, seconds since arm *)
  tr_from : level;
  tr_to : level;
  tr_ratio : float; (* the ratio that drove the move *)
}

type t = {
  config : config;
  cell : int Atomic.t; (* level_rank, the only cross-domain field *)
  lock : Mutex.t;
  mutable calm : int; (* consecutive below-exit observations *)
  mutable transitions : transition list; (* reverse order *)
  mutable peak_ratio : float;
  mutable peak_gauge : int;
  mutable observations : int;
}

let create config =
  {
    config;
    cell = Atomic.make (level_rank Healthy);
    lock = Mutex.create ();
    calm = 0;
    transitions = [];
    peak_ratio = 0.0;
    peak_gauge = 0;
    observations = 0;
  }

let level t = level_of_rank (Atomic.get t.cell)
let config t = t.config

let enter_threshold config = function
  | Healthy -> 0.0
  | Pressured -> config.enter_pressured
  | Degraded_ttl -> config.enter_degraded
  | Degraded_all -> config.enter_shed_all

(* Highest level whose entry threshold the ratio meets. *)
let target_of config ratio =
  if ratio >= config.enter_shed_all then Degraded_all
  else if ratio >= config.enter_degraded then Degraded_ttl
  else if ratio >= config.enter_pressured then Pressured
  else Healthy

let record t ~now ~from ~to_ ~ratio =
  Atomic.set t.cell (level_rank to_);
  t.transitions <-
    { tr_t = now; tr_from = from; tr_to = to_; tr_ratio = ratio }
    :: t.transitions

let observe t ~gauge ~queued ~now =
  let c = t.config in
  let ratio =
    (Float.of_int gauge +. (c.queue_weight *. Float.of_int queued))
    /. Float.of_int c.budget
  in
  Mutex.lock t.lock;
  t.observations <- t.observations + 1;
  if ratio > t.peak_ratio then t.peak_ratio <- ratio;
  if gauge > t.peak_gauge then t.peak_gauge <- gauge;
  let cur = level_of_rank (Atomic.get t.cell) in
  let target = target_of c ratio in
  let next =
    if level_rank target > level_rank cur then begin
      (* Ascend immediately, possibly skipping levels. *)
      t.calm <- 0;
      record t ~now ~from:cur ~to_:target ~ratio;
      target
    end
    else if cur = Healthy then cur
    else if ratio < c.exit_margin *. enter_threshold c cur then begin
      t.calm <- t.calm + 1;
      if t.calm >= c.quiesce_samples then begin
        let down = level_of_rank (level_rank cur - 1) in
        t.calm <- 0;
        record t ~now ~from:cur ~to_:down ~ratio;
        down
      end
      else cur
    end
    else begin
      (* Neither qualifying for ascent nor calm: hold, reset the dwell. *)
      t.calm <- 0;
      cur
    end
  in
  Mutex.unlock t.lock;
  next

let transitions t =
  Mutex.lock t.lock;
  let l = List.rev t.transitions in
  Mutex.unlock t.lock;
  l

let peak_ratio t =
  Mutex.lock t.lock;
  let r = t.peak_ratio in
  Mutex.unlock t.lock;
  r

let peak_gauge t =
  Mutex.lock t.lock;
  let g = t.peak_gauge in
  Mutex.unlock t.lock;
  g

let max_level t =
  let m =
    List.fold_left
      (fun acc tr -> max acc (level_rank tr.tr_to))
      (Atomic.get t.cell) (transitions t)
  in
  level_of_rank m

let observations t =
  Mutex.lock t.lock;
  let n = t.observations in
  Mutex.unlock t.lock;
  n
