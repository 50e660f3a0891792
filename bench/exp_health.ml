(* E20 — locus_health: what the live health plane costs and how fast it
   shouts.

   Two questions an operator asks before arming always-on observation:

   1. Overhead. The same remote record-commit loop runs with the health
      plane off and on (100 ms sampler window). The sampler is a
      scheduled closure that reads counters and histogram snapshots —
      it consumes no virtual time — so the measured virtual latencies
      must come out identical; the table and the ±10% claim below
      prove it. Nor may it keep the run alive: the sampler stops once
      only cancelled timers are queued, so "health on" ends at most one
      window after "health off" does. (Host-CPU cost exists but is the
      point of the windowed design: a handful of counter reads per
      100 ms window.)

   2. Alarm latency. A coordinator dies between its durable 2PC decision
      and phase 2, stranding the participants in-doubt — the classic
      blocking window. The watchdog may only raise [in_doubt_age] once
      the oldest in-doubt transaction crosses the age threshold; a
      claim requires the alarm within two window closes of that
      crossing. *)

open Harness
module W = Locus_check.Workload
module Obs = Locus_core.Obs
module H = Locus_health

let n_commits = 40
let record_bytes = 100
let window_us = 100_000
let max_alarm_windows = 2.

let claims =
  [
    Gate.versus
      (Printf.sprintf "health-on p50 within %g%% of health-off" Gate.tolerance_pct)
      "health on" ~reference:"health off" "p50_virtual_us" Gate.within_tolerance;
    Gate.at_least "health on" "windows" 1.;
    Gate.versus "health on closes at most one window past health off's end"
      "health on" ~reference:"health off" "end_us" (fun c v0 ->
        c <= v0 +. float_of_int window_us);
    Gate.at_most "health" "alarms" 0.;
    Gate.at_least "in_doubt_age alarm" "alarm_at_us" 0.;
    Gate.at_least "in_doubt_age alarm" "blocked_participants" 1.;
    Gate.at_least "in_doubt_age alarm" "alarm_latency_windows" 0.;
    Gate.at_most "in_doubt_age alarm" "alarm_latency_windows" max_alarm_windows;
  ]

type sample = {
  label : string;
  latencies : int list;
  span_us : int;
  end_us : int;
  windows : int;
  alarms : int;
}

(* The E19 clean-case workload shape: every write, lock and commit
   crosses the wire to the storage site. *)
let run_commits ~health ~label =
  let config = K.Config.default ~n_sites:2 in
  let config =
    if health then K.Config.with_health ~window_us config else config
  in
  let sim = fresh ~config ~n_sites:2 () in
  let lats = ref [] in
  let t_start = ref 0 and t_end = ref 0 in
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 ~name:"writer" (fun env ->
         let e = K.engine (Api.cluster env) in
         let c = Api.creat env "/health" ~vid:1 in
         Api.write_string env c (String.make record_bytes 'i');
         Api.commit_file env c;
         t_start := L.Engine.now e;
         for i = 1 to n_commits do
           Api.pwrite env c ~pos:0
             (Bytes.make record_bytes (Char.chr (64 + (i mod 26))));
           let t0 = L.Engine.now e in
           Api.commit_file env c;
           lats := (L.Engine.now e - t0) :: !lats
         done;
         t_end := L.Engine.now e;
         Api.close env c));
  L.run sim;
  {
    label;
    latencies = List.rev !lats;
    span_us = !t_end - !t_start;
    end_us = L.Engine.now sim.L.engine;
    windows = K.health_windows sim.L.cluster;
    alarms = List.length (K.health_alarms sim.L.cluster);
  }

(* The stranded-coordinator scenario from the checker's alarm-liveness
   oracle, measured: when does the watchdog say in_doubt_age? *)
let run_alarm_scenario () =
  let spec = W.gen ~seed:42 ~sites:3 () in
  let hist, sim =
    W.run
      ~fault:(W.Kill_coordinator { after_decides = 1 })
      ~commit:`Two_phase ~health:window_us ~seed:42 spec
  in
  let threshold = H.Rules.default.in_doubt_age_us in
  (* The fault fires at the first 2PC decide ([after_decides = 1]), so
     the stranded transaction's durable decision is the FIRST
     Commit/Abort in the history; the in-doubt age counts from there.
     (Unaffected transactions keep committing afterwards.) *)
  let kill_at =
    List.fold_left
      (fun acc (r : Obs.record) ->
        match r.Obs.ev with
        | Obs.Commit _ | Obs.Abort _ ->
          (match acc with None -> Some r.Obs.at | some -> some)
        | _ -> acc)
      None
      (Locus_check.History.events hist)
    |> Option.value ~default:0
  in
  let alarm_at =
    List.fold_left
      (fun acc (r : Obs.record) ->
        match r.Obs.ev with
        | Obs.Alarm { name = "in_doubt_age"; _ } ->
          (match acc with None -> Some r.Obs.at | some -> some)
        | _ -> acc)
      None
      (Locus_check.History.events hist)
  in
  let blocked = List.length (W.blocked sim) in
  (kill_at, threshold, alarm_at, blocked)

let e20 () =
  let off = run_commits ~health:false ~label:"health off" in
  let on_ =
    run_commits ~health:true
      ~label:(Printf.sprintf "health on (%d ms window)" (window_us / 1000))
  in
  let kill_at, threshold, alarm_at, blocked = run_alarm_scenario () in
  let crossing_us = kill_at + threshold in
  let alarm_lat_windows =
    Option.map
      (fun at -> float_of_int (at - crossing_us) /. float_of_int window_us)
      alarm_at
  in
  Tables.print_table
    ~title:
      (Printf.sprintf
         "E20: health plane overhead on remote record commit (%d commits)"
         n_commits)
    ~columns:[ "case"; "p50"; "p99"; "run ends at"; "windows closed"; "alarms" ]
    (List.map
       (fun s ->
         [
           s.label;
           Tables.ms (Jsonout.percentile s.latencies 50.);
           Tables.ms (Jsonout.percentile s.latencies 99.);
           Tables.ms s.end_us;
           string_of_int s.windows;
           string_of_int s.alarms;
         ])
       [ off; on_ ]);
  Tables.print_table
    ~title:"E20: in_doubt_age alarm latency (stranded 2PC coordinator)"
    ~columns:
      [ "decision at"; "age threshold"; "alarm at"; "latency (windows)" ]
    [
      [
        Tables.ms kill_at;
        Tables.ms threshold;
        (match alarm_at with None -> "NEVER" | Some at -> Tables.ms at);
        (match alarm_lat_windows with
        | None -> "-"
        | Some w -> Printf.sprintf "%.2f" w);
      ];
    ];
  Gate.publish ~exp:"e20" ~claims
    [
      Jsonout.metric
        ~extras:
          [
            ("end_us", float_of_int off.end_us);
            ("windows", float_of_int off.windows);
            ("alarms", float_of_int off.alarms);
          ]
        ~label:off.label ~span_us:off.span_us off.latencies;
      Jsonout.metric
        ~extras:
          [
            ("end_us", float_of_int on_.end_us);
            ("windows", float_of_int on_.windows);
            ("alarms", float_of_int on_.alarms);
          ]
        ~label:on_.label ~span_us:on_.span_us on_.latencies;
      Jsonout.single
        ~extras:
          ([
             ("decision_at_us", float_of_int kill_at);
             ("threshold_us", float_of_int threshold);
             ( "alarm_at_us",
               match alarm_at with
               | None -> -1.
               | Some at -> float_of_int at );
           ]
          (* No alarm, no latency: the claims over it then fail as
             missing. *)
          @ (match alarm_lat_windows with
            | None -> []
            | Some w -> [ ("alarm_latency_windows", w) ])
          @ [ ("blocked_participants", float_of_int blocked) ])
        ~label:"in_doubt_age alarm"
        ~latency_us:
          (match alarm_at with None -> 0 | Some at -> at - crossing_us)
        ();
    ];
  Tables.paper
    "not in the paper: the health plane is modern operability folded \
     back onto the 1985 design — sampling costs no virtual time (the \
     off/on rows must match), and the watchdog names a stranded 2PC \
     coordinator within two 100 ms windows of the in-doubt age crossing"
