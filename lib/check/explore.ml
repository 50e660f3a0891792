type config = {
  sites : int;
  txns : int;
  ops : int;
  records : int;
  replicas : int;
  batch_window : int;
  fault_every : int option;
  commit : Workload.commit_protocol;
  shards : int;
  policy : Locus_shard.Policy.t;
  net_faults : Locus_net.Transport.faults option;
  health_window : int;
  arrival : float option;
}

let default_config =
  {
    sites = 2;
    txns = 4;
    ops = 4;
    records = 4;
    replicas = 1;
    batch_window = 0;
    fault_every = None;
    commit = `Two_phase;
    shards = 0;
    policy = Locus_shard.Policy.default;
    net_faults = None;
    health_window = 0;
    arrival = None;
  }

type failure = {
  f_seed : int;
  f_spec : Workload.spec;
  f_report : Checker.report;
  f_blocked : (int * Txid.t) list;
  f_health : string list;
}

type result = {
  checked : int;
  events : int;
  permitted : int;
  failures : failure list;
}

(* Alternate fault injections across the qualifying seeds, so one sweep
   exercises the §4.4 recovery path, the replication degrade / reconcile
   path, and — under Paxos Commit — the kill-the-coordinator-between-
   decision-and-phase-2 window the liveness check exists for. 2PC sweeps
   never get [Kill_coordinator]: blocking there is documented behaviour,
   not a bug. *)
let fault_for cfg seed =
  match cfg.fault_every with
  | Some k when k > 0 && seed mod k = 0 ->
      let nth = seed / k in
      let victim = nth mod cfg.sites
      and after_decides = 1 + (seed mod 3) in
      let base =
        match cfg.commit with
        | `Two_phase ->
            let plans =
              [ Workload.Crash { victim; after_decides; restart_delay = 2_000_000 };
                Workload.Partition { victim; after_decides; heal_delay = 2_000_000 }
              ]
            in
            if cfg.health_window > 0 then
              (* The health lane WANTS the documented 2PC blocking window:
                 a killed coordinator strands its participants in-doubt,
                 and the watchdog must say so ([in_doubt_age]). Outside
                 the lane the blocked state itself would read as a
                 liveness failure, so plain 2PC sweeps never get it. *)
              plans @ [ Workload.Kill_coordinator { after_decides } ]
            else plans
        | `Paxos _ ->
            [ Workload.Crash { victim; after_decides; restart_delay = 2_000_000 };
              Workload.Partition { victim; after_decides; heal_delay = 2_000_000 };
              Workload.Kill_coordinator { after_decides }
            ]
      in
      let faults =
        if cfg.shards > 0 then
          base @ [ Workload.Migrate_owner { after_decides } ]
        else base
      in
      Some (List.nth faults (nth mod List.length faults))
  | Some _ | None -> None

let run_seed cfg seed =
  let spec =
    match cfg.arrival with
    | Some rate ->
      (* Poisson base with a flash crowd punched through the middle of
         the expected makespan: every open-loop seed exercises both the
         steady arrival clock and a burst 3x over it. *)
      let makespan =
        int_of_float (float_of_int (max 1 cfg.txns) /. Float.max 1e-6 rate *. 1e6)
      in
      Workload.gen_open ~seed ~sites:cfg.sites ~txns:cfg.txns ~ops:cfg.ops
        ~records:cfg.records
        ~flash:(makespan / 2, makespan / 4, 3.)
        ~rate ()
    | None ->
      Workload.gen ~seed ~sites:cfg.sites ~txns:cfg.txns ~ops:cfg.ops
        ~records:cfg.records ()
  in
  let hist, sim =
    Workload.run ?fault:(fault_for cfg seed) ~replicas:cfg.replicas
      ~batch_window:cfg.batch_window ~commit:cfg.commit ~shards:cfg.shards
      ~policy:cfg.policy ?net_faults:cfg.net_faults ~health:cfg.health_window
      ~seed spec
  in
  (* Liveness: participants still prepared after the run drained are
     blocked in-doubt. 2PC is allowed to block only when its coordinator
     is still down at the end of the run (which the fault plans above
     never leave it); Paxos Commit must always drain. *)
  (spec, hist, Checker.check hist, Workload.blocked sim)

let alarm_names hist =
  List.filter_map
    (fun (r : History.Obs.record) ->
      match r.History.Obs.ev with
      | History.Obs.Alarm { name; _ } -> Some name
      | _ -> None)
    (History.events hist)

(* The health plane's two checker oracles, evaluated per seed when the
   sweep runs with the watchdog armed ([health_window > 0]):

   - {e no false alarms}: a fault-free seed must raise no alarm at all —
     the thresholds are calibrated so healthy schedules stay silent;
   - {e alarm liveness}: a 2PC seed whose coordinator kill stranded
     participants in-doubt MUST raise [in_doubt_age] — a watchdog that
     sleeps through the one incident it exists for is broken (this is
     the oracle [--break health] inverts).

   Returns [(excuse_blocked, violations)]: in the kill-under-2PC lane the
   blocked participants are the scenario, not a bug, so the sweep's
   liveness check stands down in favour of the alarm check. *)
let health_verdict cfg ~fault ~blocked hist =
  if cfg.health_window = 0 then (false, [])
  else begin
    let alarms = alarm_names hist in
    let false_alarms =
      match fault with
      | None ->
          List.map
            (fun n -> Printf.sprintf "false alarm on a clean run: %s" n)
            (List.sort_uniq String.compare alarms)
      | Some _ -> []
    in
    let kill_2pc =
      match (fault, cfg.commit) with
      | Some (Workload.Kill_coordinator _), `Two_phase -> true
      | _ -> false
    in
    let missed =
      if kill_2pc && blocked <> [] && not (List.mem "in_doubt_age" alarms)
      then
        [ "alarm liveness: participants ended blocked in-doubt but the \
           watchdog never raised in_doubt_age" ]
      else []
    in
    (kill_2pc, false_alarms @ missed)
  end

let sweep ?(config = default_config) ?progress ~seeds () =
  List.fold_left
    (fun acc seed ->
      let spec, hist, report, blocked = run_seed config seed in
      (match progress with Some f -> f seed report | None -> ());
      let excuse_blocked, health =
        health_verdict config ~fault:(fault_for config seed) ~blocked hist
      in
      let acc =
        {
          acc with
          checked = acc.checked + 1;
          events = acc.events + History.length hist;
          permitted = acc.permitted + List.length (Checker.permitted report);
        }
      in
      if
        Checker.ok report
        && (blocked = [] || excuse_blocked)
        && health = []
      then acc
      else
        {
          acc with
          failures =
            {
              f_seed = seed;
              f_spec = spec;
              f_report = report;
              f_blocked = (if excuse_blocked then [] else blocked);
              f_health = health;
            }
            :: acc.failures;
        })
    { checked = 0; events = 0; permitted = 0; failures = [] }
    seeds
  |> fun r -> { r with failures = List.rev r.failures }

let seeds ~n ~from = List.init n (fun i -> from + i)

let shrink_failure cfg f =
  let fault = fault_for cfg f.f_seed in
  let fails spec =
    let hist, sim =
      Workload.run ?fault ~replicas:cfg.replicas
        ~batch_window:cfg.batch_window ~commit:cfg.commit ~shards:cfg.shards
        ~policy:cfg.policy ?net_faults:cfg.net_faults
        ~health:cfg.health_window ~seed:f.f_seed spec
    in
    let blocked = Workload.blocked sim in
    let excuse_blocked, health = health_verdict cfg ~fault ~blocked hist in
    (not (Checker.ok (Checker.check hist)))
    || (blocked <> [] && not excuse_blocked)
    || health <> []
  in
  Shrink.minimize ~fails f.f_spec
