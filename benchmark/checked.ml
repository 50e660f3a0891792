(* The checker workloads: [sweep] (the explorer's positive CI sweeps) and
   [audit] (long open-loop schedules, recorded and checked).

   Each schedule is split into host phases the benchmark times from
   outside: spec generation and a cluster build of the schedule's config
   (set-up), then [Workload.run] and [Checker.check]. The explorer does
   the same steps inside [Explore.run_seed]; its fault rotation and
   health verdict are private, so [fault_for] and [verdict] below restate
   them, and every traced sweep run cross-checks the result against
   [Explore.sweep] itself. *)

module L = Locus_core.Locus
module K = Locus_core.Kernel
module Ck = Locus_check
module Explore = Ck.Explore
module Workload = Ck.Workload
module History = Ck.History
module Transport = Locus_net.Transport

type lane = { lane : string; count : int; cfg : Explore.config }

let base = { Explore.default_config with sites = 3 }
let lossy = Some { Transport.no_faults with drop = 0.05; dup = 0.05; reorder = 4 }
let health = 100_000

(* The positive sweeps of scripts/ci_sweep.sh, with their seed counts. *)
let lanes =
  [ { lane = "deadlock_check"; count = 50; cfg = base };
    { lane = "deadlock_check_fault"; count = 25; cfg = { base with fault_every = Some 5 } };
    { lane = "repl"; count = 200; cfg = { base with replicas = 2; fault_every = Some 5 } };
    { lane = "repl_batch"; count = 200;
      cfg = { base with replicas = 2; batch_window = 500; fault_every = Some 5 } };
    { lane = "paxos_f1"; count = 200;
      cfg = { base with fault_every = Some 3; commit = `Paxos 1 } };
    { lane = "paxos_f2"; count = 200;
      cfg = { base with sites = 5; fault_every = Some 3; commit = `Paxos 2 } };
    { lane = "shard_4"; count = 200;
      cfg = { base with sites = 4; shards = 8; fault_every = Some 3 } };
    { lane = "shard_paxos"; count = 200;
      cfg = { base with sites = 5; shards = 8; fault_every = Some 3; commit = `Paxos 1 } };
    { lane = "shard_32"; count = 25;
      cfg = { base with sites = 32; shards = 32; txns = 8; fault_every = Some 5 } };
    { lane = "chaos_2pc"; count = 200;
      cfg = { base with fault_every = Some 5; net_faults = lossy } };
    { lane = "chaos_paxos"; count = 200;
      cfg = { base with fault_every = Some 5; commit = `Paxos 1; net_faults = lossy } };
    { lane = "chaos_shard"; count = 200;
      cfg = { base with shards = 4; fault_every = Some 5; net_faults = lossy } };
    { lane = "health_clean"; count = 200; cfg = { base with health_window = health } };
    { lane = "health_fault"; count = 200;
      cfg = { base with fault_every = Some 3; health_window = health } };
    { lane = "openloop_50"; count = 200;
      cfg = { base with arrival = Some 50.; fault_every = Some 7; health_window = health } };
    { lane = "openloop_120"; count = 200;
      cfg = { base with arrival = Some 120.; records = 8; fault_every = Some 5 } } ]

(* {1 The explorer's per-seed steps, restated} *)

let gen_spec (cfg : Explore.config) seed =
  match cfg.arrival with
  | Some rate ->
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

let fault_for (cfg : Explore.config) seed =
  match cfg.fault_every with
  | Some k when k > 0 && seed mod k = 0 ->
    let nth = seed / k in
    let victim = nth mod cfg.sites and after_decides = 1 + (seed mod 3) in
    let crash = Workload.Crash { victim; after_decides; restart_delay = 2_000_000 } in
    let part = Workload.Partition { victim; after_decides; heal_delay = 2_000_000 } in
    let kill = Workload.Kill_coordinator { after_decides } in
    let base =
      match cfg.commit with
      | `Two_phase -> if cfg.health_window > 0 then [ crash; part; kill ] else [ crash; part ]
      | `Paxos _ -> [ crash; part; kill ]
    in
    let faults =
      if cfg.shards > 0 then base @ [ Workload.Migrate_owner { after_decides } ] else base
    in
    Some (List.nth faults (nth mod List.length faults))
  | Some _ | None -> None

(* The cluster config [Workload.run] builds for a schedule of [cfg]. *)
let kernel_config (cfg : Explore.config) =
  let n_sites = cfg.sites in
  let c =
    if cfg.replicas > 1 then K.Config.with_replication ~n_sites ~factor:cfg.replicas
    else K.Config.default ~n_sites
  in
  let c = if cfg.batch_window > 0 then K.Config.with_batching ~window_us:cfg.batch_window c else c in
  let c = match cfg.commit with `Two_phase -> c | `Paxos f -> K.Config.with_paxos ~f c in
  let c = if cfg.shards > 0 then K.Config.with_shards ~shards:cfg.shards ~policy:cfg.policy c else c in
  let c = match cfg.net_faults with Some f -> { c with K.Config.net_faults = Some f } | None -> c in
  if cfg.health_window > 0 then K.Config.with_health ~window_us:cfg.health_window c else c

let alarms hist =
  List.filter_map
    (fun (r : History.Obs.record) ->
      match r.History.Obs.ev with History.Obs.Alarm { name; _ } -> Some name | _ -> None)
    (History.events hist)

(* The sweep's per-seed verdict: 1SR, no participant blocked in-doubt,
   and, with the health plane armed, no alarm on a fault-free seed and an
   [in_doubt_age] alarm on a 2PC seed whose killed coordinator left
   participants blocked. *)
let verdict (cfg : Explore.config) seed report hist blocked =
  let fault = fault_for cfg seed in
  let kill_2pc =
    cfg.health_window > 0
    && (match (fault, cfg.commit) with
       | Some (Workload.Kill_coordinator _), `Two_phase -> true
       | _ -> false)
  in
  let alarms = if cfg.health_window > 0 then alarms hist else [] in
  List.concat
    [ (if Ck.Checker.ok report then []
       else [ Printf.sprintf "seed %d: unpermitted violation" seed ]);
      (if blocked <> [] && not kill_2pc then
         [ Printf.sprintf "seed %d: participants blocked in-doubt" seed ]
       else []);
      (if fault = None && alarms <> [] then
         [ Printf.sprintf "seed %d: false alarm on a clean run" seed ]
       else []);
      (if kill_2pc && blocked <> [] && not (List.mem "in_doubt_age" alarms) then
         [ Printf.sprintf "seed %d: blocked in-doubt without an in_doubt_age alarm" seed ]
       else []) ]

(* {1 Schedules} *)

type schedule = {
  group : string;  (** lane, or "audit" *)
  cfg : Explore.config;
  seed : int;
  spec : Workload.spec;
  fault : Workload.fault option;
}

(* Transaction latency from the recorded history: its [Begin] to its first
   [Commit] or [Abort]. *)
let sojourns hist =
  let begun = Hashtbl.create 64 in
  List.fold_left
    (fun acc (r : History.Obs.record) ->
      match r.History.Obs.ev with
      | History.Obs.Begin { txid; _ } ->
        Hashtbl.replace begun txid r.History.Obs.at;
        acc
      | History.Obs.Commit { txid } | History.Obs.Abort { txid } -> (
        match Hashtbl.find_opt begun txid with
        | Some at ->
          Hashtbl.remove begun txid;
          (r.History.Obs.at - at) :: acc
        | None -> acc)
      | _ -> acc)
    [] (History.events hist)

(* Set-up: generate every spec, and build one cluster per config (the
   build a [Workload.run] of that config pays) as a [check.build] span. *)
let prepare tr groups =
  List.concat_map
    (fun (group, (cfg : Explore.config), seeds) ->
      Span.host tr ~trace:0 "check.build" (fun () ->
          ignore (L.make ~seed:0 ~config:(kernel_config cfg) ~n_sites:cfg.sites ()));
      List.map
        (fun seed ->
          let spec = Span.host tr ~trace:seed "check.gen" (fun () -> gen_spec cfg seed) in
          { group; cfg; seed; spec; fault = fault_for cfg seed })
        seeds)
    groups

(* The timed part of one schedule: run it in a fresh cluster, then check
   the history. Returns its sojourns, committed count and failures. *)
let run_schedule tr layers s =
  let cfg = s.cfg in
  let hist, sim =
    Span.host tr ~trace:s.seed "check.sim" (fun () ->
        Workload.run ?fault:s.fault ~replicas:cfg.replicas
          ~batch_window:cfg.batch_window ~commit:cfg.commit ~shards:cfg.shards
          ~policy:cfg.policy ?net_faults:cfg.net_faults ~health:cfg.health_window
          ~seed:s.seed s.spec)
  in
  let report, failures =
    Span.host tr ~trace:s.seed "check.checker" (fun () ->
        let report = Ck.Checker.check hist in
        let failures = verdict cfg s.seed report hist (Workload.blocked sim) in
        (report, List.map (fun f -> s.group ^ " " ^ f) failures))
  in
  Layers.add_sim layers sim;
  Layers.bump layers "hist.events" (History.length hist);
  Layers.bump layers "check.edges" (List.length report.Ck.Checker.edges);
  if failures <> [] then Layers.bump layers "schedules.failing" 1;
  (sojourns hist, List.length report.Ck.Checker.committed, failures)

(* {1 Workload definitions} *)

(* Every lane over a seed-chosen seven eighths of its CI seeds (CI sweeps
   [count] seeds from 42). The sample stays inside the CI seeds because
   some lanes fail beyond them: the lossy-network lanes report dirty reads
   on seeds such as 255 and 415 (see the README). *)
let sweep_groups seed =
  List.mapi
    (fun i l ->
      let ci = Array.init l.count (fun k -> 42 + k) in
      Locus_sim.Prng.shuffle (Locus_sim.Prng.create ~seed:((seed * 7919) + i)) ci;
      let keep = max 1 (7 * l.count / 8) in
      (l.lane, l.cfg, List.sort compare (Array.to_list (Array.sub ci 0 keep))))
    lanes

(* [audit]: long open-loop schedules at a sub-knee rate, no faults. The
   checker's cost per schedule moves by a fifth from one schedule to the
   next, so a run checks a seed-chosen five of a fixed catalogue of six:
   runs differ, but not by more than one schedule. *)
let audit_catalogue = 6
let audit_schedules = 5
let audit_cfg = { base with txns = 512; ops = 4; records = 512; arrival = Some 2. }

let audit_groups seed =
  let pool = Array.init audit_catalogue Fun.id in
  Locus_sim.Prng.shuffle (Locus_sim.Prng.create ~seed:(seed * 7919)) pool;
  [ ("audit", audit_cfg, List.sort compare (Array.to_list (Array.sub pool 0 audit_schedules))) ]

let workload name groups_of =
  let setup ~seed tr =
    let scheds = prepare tr (groups_of seed) in
    fun tr ->
      let layers = Layers.create () in
      let results = List.map (run_schedule tr layers) scheds in
      let committed = List.fold_left (fun acc (_, c, _) -> acc + c) 0 results in
      let n = Metric.fi (List.length scheds) in
      let per_schedule name = Metric.ratio (Metric.fi (Layers.get layers name)) n in
      let open Metric in
      {
        Work.rows =
          percentile_rows "sojourn" (List.concat_map (fun (soj, _, _) -> soj) results)
          @ [ row Virtual "1/s" "committed_per_s"
                (ratio (fi committed) (fi (Layers.get layers "virtual_us") /. 1e6));
              row Virtual "ratio" "failed_frac" (per_schedule "schedules.failing") ];
        layer_rows =
          (match tr with
          | None -> []
          | Some sp ->
            [ row Virtual "count" "check.hist_events" (per_schedule "hist.events");
              row Virtual "count" "check.edges" (per_schedule "check.edges");
              row Host "us" "check.checker_us_per_hist_event"
                (ratio
                   (Span.total_self (Span.spans sp) "check.checker")
                   (fi (Layers.get layers "hist.events")));
              row Virtual "count" "health.windows_per_schedule" (per_schedule "health.windows") ]);
        committed;
        schedules = List.length scheds;
        checks = List.length scheds;
        failures = List.concat_map (fun (_, _, f) -> f) results;
        layers;
      }
  in
  { Work.name; setup; crosscheck = Work.no_crosscheck }

(* The authoritative cross-check of [sweep]: [Explore.sweep] over the same
   seeds, one host span per lane, must agree with the restated steps on
   the schedule count, the history length and the number of failing
   seeds. Its spans give each CI lane's host cost per schedule. *)
let explore_crosscheck ~seed sp (out : Work.out) =
  let checked = ref 0 and events = ref 0 and failing = ref 0 in
  let rows =
    List.map
      (fun (group, cfg, seeds) ->
        let t0 = Span.now_us () in
        let res =
          Span.host (Some sp) ~trace:0 ("explore.sweep." ^ group) (fun () ->
              Explore.sweep ~config:cfg ~seeds ())
        in
        let ms = (Span.now_us () -. t0) /. 1000. in
        checked := !checked + res.Explore.checked;
        events := !events + res.Explore.events;
        failing := !failing + List.length res.Explore.failures;
        Metric.row Metric.Host "ms"
          (Printf.sprintf "sweep.%s.ms_per_schedule" group)
          (ms /. Metric.fi (List.length seeds)))
      (sweep_groups seed)
  in
  let expect what mine theirs =
    if mine = theirs then []
    else [ Printf.sprintf "Explore.sweep %s %d, the benchmark %d" what theirs mine ]
  in
  ( rows,
    expect "checked" out.Work.schedules !checked
    @ expect "history events" (Layers.get out.Work.layers "hist.events") !events
    @ expect "failing seeds" (Layers.get out.Work.layers "schedules.failing") !failing )

let sweep = { (workload "sweep" sweep_groups) with crosscheck = explore_crosscheck }
let audit = workload "audit" audit_groups
