(* The soak engine (protocol: see the mli).  Workers spin on [go] after
   their set-up so every domain is released at the same instant.  The
   teardown order is load-bearing:

   1. stop flag, then the throughput window closes;
   2. final supervision pass, while the chaos engine that poisoned a
      crashed tid is still installed ([Chaos.revive] must target it);
   3. target shutdown, so no join can hang on a parked domain;
   4. joins, then the quiesce flush (skipping tids that refuse it). *)

type target = {
  threads : int;
  unreclaimed : unit -> int;
  recover : tid:int -> unit;
  quiesce : tid:int -> unit;
  engine : unit -> Chaos.t;
  shutdown : unit -> unit;
}

let target ~threads ~unreclaimed ~recover ~quiesce =
  let eng = ref None in
  let engine () =
    match !eng with
    | Some e -> e
    | None ->
        let e = Chaos.create ~threads () in
        Chaos.install e;
        eng := Some e;
        e
  in
  let shutdown () =
    Option.iter
      (fun e ->
        for tid = 0 to threads - 1 do
          List.iter
            (fun point -> Chaos.disarm e ~tid ~point)
            Smr.Probe.all_points
        done;
        Chaos.release_all e;
        Chaos.uninstall ();
        eng := None)
      !eng
  in
  { threads; unreclaimed; recover; quiesce; engine; shutdown }

let instance_target (inst : Instance.t) =
  {
    threads = inst.threads;
    unreclaimed = inst.unreclaimed;
    recover = inst.recover;
    quiesce = inst.quiesce;
    engine = inst.fault.engine;
    shutdown = inst.fault.shutdown;
  }

type worker = {
  tid : int;
  stop : bool Atomic.t;
  phase : int Atomic.t;
  beat : int Atomic.t;
  ops : int ref;
}

type ctl = {
  tgt : target;
  phase_idx : int Atomic.t;
  domains : unit Domain.t option array;
  mutable t0 : float;
  mutable until : float;
}

let now ctl = Clock.now () -. ctl.t0
let phase ctl = Atomic.get ctl.phase_idx

let set_phase ctl i =
  if Atomic.get ctl.phase_idx <> i then Atomic.set ctl.phase_idx i

let set_until ctl t = ctl.until <- t

let join ctl ~tid =
  Option.iter
    (fun d ->
      Domain.join d;
      ctl.domains.(tid) <- None)
    ctl.domains.(tid)

let park ctl ~tids =
  let e = ctl.tgt.engine () in
  List.iter
    (fun tid ->
      Chaos.arm e ~tid ~point:Smr.Probe.Read ~after:0
        (Chaos.Stall { for_s = None }))
    tids;
  List.length
    (List.filter (fun tid -> Chaos.wait_parked ~timeout_s:1.0 e ~tid) tids)

let release ctl ~tids =
  let e = ctl.tgt.engine () in
  List.iter
    (fun tid ->
      Chaos.disarm e ~tid ~point:Smr.Probe.Read;
      if Chaos.parked e ~tid then Chaos.resume e ~tid)
    tids

type outcome = {
  elapsed : float;
  wall_total : float;
  ops : int;
  faults : int;
  mem_series : Metrics.mem_sample list;
  max_unreclaimed : int;
  avg_unreclaimed : float;
  recoveries : Metrics.recovery_event list;
}

let run ?(sample_every = 0.01) ?schedule ?supervise
    ?(on_sample = fun _ ~now:_ -> ()) tgt ~workers ~duration body =
  if workers < 1 || workers > tgt.threads then
    invalid_arg "Soak.run: workers must be in [1, threads]";
  let go = Atomic.make false and stop = Atomic.make false in
  let sup = Option.map (fun c -> Supervisor.create c ~workers) supervise in
  let ops = Array.make workers 0 and faults = Array.make workers 0 in
  let ctl =
    {
      tgt;
      phase_idx = Atomic.make 0;
      domains = Array.make workers None;
      t0 = 0.0;
      until = duration;
    }
  in
  let spawn tid =
    let d =
      Domain.spawn (fun () ->
          let beat =
            match sup with
            | Some s -> Supervisor.beat_cell s ~tid
            | None -> Atomic.make 0
          in
          let w = { tid; stop; phase = ctl.phase_idx; beat; ops = ref 0 } in
          (try
             let loop = body w in
             while not (Atomic.get go) do
               Domain.cpu_relax ()
             done;
             loop ()
           with
          | Memory.Fault.Use_after_free _ ->
              (* The simulated SEGFAULT: record and stop this worker. *)
              faults.(tid) <- faults.(tid) + 1
          | Chaos.Crashed ->
              (* Killed mid-operation (no [end_op]); the survivors carry
                 on and, when supervised, the coordinator recovers the
                 handle and respawns. *)
              Option.iter (fun s -> Supervisor.notify_crashed s ~tid) sup);
          (* Accumulate: a respawned worker adds to its predecessor's. *)
          ops.(tid) <- ops.(tid) + !(w.ops))
    in
    ctl.domains.(tid) <- Some d
  in
  for tid = 0 to workers - 1 do
    spawn tid
  done;
  let supervise ~final =
    Option.iter
      (fun s ->
        Supervisor.check s ~now:(now ctl) ~final ~engine:tgt.engine
          ~recover:tgt.recover ~join:(join ctl)
          ~respawn:(fun ~tid -> spawn tid))
      sup
  in
  let samples = ref [] in
  ctl.t0 <- Clock.now ();
  Atomic.set go true;
  while now ctl < ctl.until do
    ignore (Unix.select [] [] [] sample_every);
    let t = now ctl in
    (match schedule with
    | Some s when Workload.phase_count s > 1 ->
        set_phase ctl (Workload.phase_index s t)
    | _ -> ());
    samples :=
      { Metrics.t = now ctl; unreclaimed = tgt.unreclaimed () } :: !samples;
    on_sample ctl ~now:t;
    supervise ~final:false
  done;
  Atomic.set stop true;
  let elapsed = now ctl in
  supervise ~final:true;
  tgt.shutdown ();
  for tid = 0 to workers - 1 do
    join ctl ~tid
  done;
  let wall_total = now ctl in
  for tid = 0 to tgt.threads - 1 do
    try tgt.quiesce ~tid with Chaos.Crashed -> ()
  done;
  let mem_series = List.rev !samples in
  let sum, peak =
    List.fold_left
      (fun (s, m) (x : Metrics.mem_sample) ->
        (s + x.unreclaimed, max m x.unreclaimed))
      (0, 0) mem_series
  in
  {
    elapsed;
    wall_total;
    ops = Array.fold_left ( + ) 0 ops;
    faults = Array.fold_left ( + ) 0 faults;
    mem_series;
    max_unreclaimed = peak;
    avg_unreclaimed =
      float_of_int sum /. float_of_int (max 1 (List.length mem_series));
    recoveries = Option.fold ~none:[] ~some:Supervisor.events sup;
  }

type check = { name : string; ok : bool; detail : string }

let check ?(detail = "") name ok = { name; ok; detail }

let failures checks =
  List.filter_map
    (fun c ->
      if c.ok then None
      else if c.detail = "" then Some c.name
      else Some (c.name ^ ":" ^ c.detail))
    checks

let verdict checks =
  match failures checks with [] -> "ok" | first :: _ -> first
