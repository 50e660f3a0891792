(* locus_health: the live health plane. Windowed series rings, sampler
   delta/gauge/interval-p99 semantics, edge-triggered watchdog rules, the
   per-site health RPC with its unreachable-site fan-out, the in-doubt
   alarm on a stranded 2PC coordinator kill — and both checker oracles
   (no false alarms on clean seeds, alarm liveness on kill seeds), the
   latter proven live by the --break health inversion. *)

module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module H = Locus_health
module W = Locus_check.Workload
module Ex = Locus_check.Explore
module Obs = Locus_core.Obs

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* {1 Series: the bounded ring} *)

let test_series_ring () =
  let s = H.Series.create ~keep:4 "commits" in
  Alcotest.(check string) "name" "commits" (H.Series.name s);
  Alcotest.(check int) "keep" 4 (H.Series.keep s);
  Alcotest.(check (option int)) "empty last" None
    (Option.map (fun p -> p.H.Series.p_value) (H.Series.last s));
  for i = 1 to 6 do
    H.Series.push s ~start_us:((i - 1) * 100) ~end_us:(i * 100) i
  done;
  (* Six pushed, four retained: the two oldest windows fell off. *)
  Alcotest.(check int) "pushed counts lifetime" 6 (H.Series.pushed s);
  Alcotest.(check (list int)) "ring keeps the newest 4, oldest first"
    [ 3; 4; 5; 6 ]
    (List.map (fun p -> p.H.Series.p_value) (H.Series.points s));
  Alcotest.(check (option (pair int int))) "last = newest window" (Some (500, 6))
    (Option.map (fun p -> (p.H.Series.p_start_us, p.H.Series.p_value))
       (H.Series.last s));
  Alcotest.(check int) "peak over retained" 6 (H.Series.peak s);
  Alcotest.(check int) "total over retained" 18 (H.Series.total s);
  (* One glyph per retained point (UTF-8, 3 bytes each above zero). *)
  Alcotest.(check int) "spark length" 12 (String.length (H.Series.spark s))

(* {1 Sampler: counter deltas, gauge levels, interval p99} *)

let test_sampler_sources () =
  let sp = H.Sampler.create ~keep:8 ~window_us:100 () in
  let counter = ref 10 and gauge = ref 0 in
  let hist = Stats.Hist.create () in
  H.Sampler.register sp "ctr" (H.Sampler.Counter (fun () -> !counter));
  H.Sampler.register sp "lvl" (H.Sampler.Gauge (fun () -> !gauge));
  H.Sampler.register sp "p99"
    (H.Sampler.Hist_p99 (fun () -> Stats.Hist.snapshot hist));
  Alcotest.check_raises "duplicate registration rejected"
    (Invalid_argument "Sampler.register: duplicate series ctr") (fun () ->
      H.Sampler.register sp "ctr" (H.Sampler.Gauge (fun () -> 0)));
  (* Window 1: counter 10 -> 25 (delta 15, baseline primed at register),
     gauge level 7, histogram saw {1000}. *)
  counter := 25;
  gauge := 7;
  Stats.Hist.add hist 1000;
  H.Sampler.tick sp ~now_us:100;
  (* Window 2: counter unchanged (delta 0), gauge dropped to 3, histogram
     saw only {50; 60} in THIS window — the interval p99 must ignore the
     lifetime 1000 from window 1. *)
  gauge := 3;
  Stats.Hist.add hist 50;
  Stats.Hist.add hist 60;
  H.Sampler.tick sp ~now_us:200;
  Alcotest.(check int) "two windows closed" 2 (H.Sampler.windows sp);
  let values name =
    match H.Sampler.find sp name with
    | None -> Alcotest.fail ("missing series " ^ name)
    | Some s -> List.map (fun p -> p.H.Series.p_value) (H.Series.points s)
  in
  Alcotest.(check (list int)) "counter deltas per window" [ 15; 0 ]
    (values "ctr");
  Alcotest.(check (list int)) "gauge levels per window" [ 7; 3 ] (values "lvl");
  (match values "p99" with
  | [ w1; w2 ] ->
      Alcotest.(check bool) "window-1 p99 from its own recordings" true
        (w1 >= 1000);
      Alcotest.(check bool) "window-2 p99 excludes window 1's 1000" true
        (w2 <= 64 && w2 >= 50)
  | vs -> Alcotest.failf "expected 2 p99 points, got %d" (List.length vs));
  Alcotest.(check (option int)) "last_value reads the newest window"
    (Some 3)
    (H.Sampler.last_value sp "lvl");
  (* Series listing is name-sorted for stable operator output. *)
  Alcotest.(check (list string)) "series sorted" [ "ctr"; "lvl"; "p99" ]
    (List.map fst (H.Sampler.series sp))

(* {1 Rules: thresholds, edge triggering, the break inversion} *)

let in_doubt_input ~now age =
  {
    (H.Rules.zero_input ~site:1 ~now_us:now) with
    H.Rules.in_in_doubt = 1;
    in_in_doubt_max_age_us = age;
  }

let test_rules_edge_trigger () =
  let r = H.Rules.create () in
  let th = H.Rules.thresholds r in
  (* Below threshold: silent. *)
  Alcotest.(check int) "young doubt is fine" 0
    (List.length
       (H.Rules.evaluate r
          (in_doubt_input ~now:100 (th.H.Rules.in_doubt_age_us / 2))));
  (* Crossing: exactly one alarm, with the stable rule id. *)
  (match H.Rules.evaluate r (in_doubt_input ~now:200 (th.H.Rules.in_doubt_age_us + 1)) with
  | [ a ] ->
      Alcotest.(check string) "rule id" "in_doubt_age" a.H.Rules.al_name;
      Alcotest.(check int) "raising site" 1 a.H.Rules.al_site;
      Alcotest.(check int) "stamped with window close" 200 a.H.Rules.al_at_us
  | l -> Alcotest.failf "expected 1 alarm, got %d" (List.length l));
  Alcotest.(check (list string)) "condition latched" [ "in_doubt_age" ]
    (H.Rules.active r);
  (* Still firing next window: edge-triggered, no repeat. *)
  Alcotest.(check int) "no alarm spam while latched" 0
    (List.length
       (H.Rules.evaluate r
          (in_doubt_input ~now:300 (th.H.Rules.in_doubt_age_us + 100))));
  (* Cleared: re-armed; crossing again raises again. *)
  Alcotest.(check int) "clear window raises nothing" 0
    (List.length (H.Rules.evaluate r (H.Rules.zero_input ~site:1 ~now_us:400)));
  Alcotest.(check (list string)) "condition unlatched" [] (H.Rules.active r);
  Alcotest.(check int) "re-armed after clearing" 1
    (List.length
       (H.Rules.evaluate r
          (in_doubt_input ~now:500 (th.H.Rules.in_doubt_age_us + 1))))

let test_rules_degraded_streak_and_break () =
  let r = H.Rules.create () in
  let degraded now =
    { (H.Rules.zero_input ~site:0 ~now_us:now) with H.Rules.in_degraded_copies = 1 }
  in
  (* replica_degraded needs [degraded_windows] CONSECUTIVE bad windows —
     a reconciliation blip of two is not an incident. *)
  Alcotest.(check int) "window 1: streak too short" 0
    (List.length (H.Rules.evaluate r (degraded 100)));
  Alcotest.(check int) "window 2: streak too short" 0
    (List.length (H.Rules.evaluate r (degraded 200)));
  Alcotest.(check int) "clean window resets the streak" 0
    (List.length (H.Rules.evaluate r (H.Rules.zero_input ~site:0 ~now_us:300)));
  Alcotest.(check int) "restart window 1" 0
    (List.length (H.Rules.evaluate r (degraded 400)));
  Alcotest.(check int) "restart window 2" 0
    (List.length (H.Rules.evaluate r (degraded 500)));
  (match H.Rules.evaluate r (degraded 600) with
  | [ a ] ->
      Alcotest.(check string) "third consecutive window alarms"
        "replica_degraded" a.H.Rules.al_name
  | l -> Alcotest.failf "expected 1 alarm, got %d" (List.length l));
  (* The CI inversion: with the watchdog muted nothing ever fires. *)
  let r2 = H.Rules.create () in
  Mutant.(with_armed [ Health ]) @@ fun () ->
  for w = 1 to 5 do
    Alcotest.(check int) "break-health mutes every rule" 0
      (List.length
         (H.Rules.evaluate r2 (in_doubt_input ~now:(w * 100) 10_000_000)))
  done

(* {1 The health RPC and the monitor fan-out} *)

let test_health_rpc_and_poll () =
  (* Health plane OFF (default config): the RPC must still answer, and a
     crashed site must read as unreachable, not hang the monitor. *)
  let sim = L.make ~n_sites:3 () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"writer" (fun env ->
         let c = Api.creat env "/h/file" ~vid:1 in
         Api.begin_trans env;
         Api.pwrite env c ~pos:0 (Bytes.of_string "committed bytes");
         ignore (Api.end_trans env);
         Api.close env c));
  L.run sim;
  Alcotest.(check int) "plane unarmed: no windows" 0 (K.health_windows cl);
  Alcotest.(check int) "plane unarmed: no series" 0
    (List.length (K.health_series cl));
  let r = K.health_report (K.kernel cl 1) in
  Alcotest.(check int) "report names its site" 1 r.H.Report.hs_site;
  Alcotest.(check int) "nothing in doubt" 0 r.H.Report.hs_in_doubt;
  Alcotest.(check bool) "the committed write hit the site-1 volume WAL" true
    (r.H.Report.hs_wal_bytes > 0);
  Alcotest.(check int) "reply cache empty on a reliable network" 0
    r.H.Report.hs_dedup_entries;
  Alcotest.(check int) "capacity advertised" K.reply_cache_capacity
    r.H.Report.hs_dedup_capacity;
  (* Poll everyone from site 0 with site 2 dead. *)
  K.crash_site cl 2;
  let polls = ref [] in
  ignore
    (Engine.spawn ~site:0 sim.L.engine (fun () ->
         polls := K.health_poll_all cl ~src:0));
  L.run sim;
  (match !polls with
  | [ H.Report.Healthy h0; H.Report.Healthy h1; H.Report.Unreachable { u_site } ] ->
      Alcotest.(check int) "site 0 local" 0 h0.H.Report.hs_site;
      Alcotest.(check int) "site 1 over RPC" 1 h1.H.Report.hs_site;
      Alcotest.(check int) "dead site reported unreachable" 2 u_site
  | ps -> Alcotest.failf "unexpected poll shape (%d entries)" (List.length ps));
  (* The JSON renderings CI jq-validates. *)
  let json = Fmt.str "%a" H.Report.pp_poll_json (List.nth !polls 1) in
  Alcotest.(check bool) "healthy site serializes reachable:true" true
    (contains ~affix:"\"reachable\": true" json);
  let json = Fmt.str "%a" H.Report.pp_poll_json (List.nth !polls 2) in
  Alcotest.(check bool) "unreachable site serializes reachable:false" true
    (contains ~affix:"\"reachable\": false" json)

(* {1 End-to-end: a stranded coordinator must raise the alarm} *)

let alarm_events hist =
  List.filter_map
    (fun (r : Obs.record) ->
      match r.Obs.ev with
      | Obs.Alarm { name; _ } -> Some (r.Obs.site, name, r.Obs.at)
      | _ -> None)
    (Locus_check.History.events hist)

let test_kill_coordinator_raises_in_doubt_alarm () =
  let window = 100_000 in
  let spec = W.gen ~seed:42 ~sites:3 () in
  let hist, sim =
    W.run
      ~fault:(W.Kill_coordinator { after_decides = 1 })
      ~commit:`Two_phase ~health:window ~seed:42 spec
  in
  let cl = sim.L.cluster in
  Alcotest.(check bool) "participants stranded in-doubt" true
    (W.blocked sim <> []);
  let alarms = alarm_events hist in
  Alcotest.(check bool) "watchdog raised in_doubt_age" true
    (List.exists (fun (_, n, _) -> n = "in_doubt_age") alarms);
  (* The alarm also lands in the cluster-side log and the counter. *)
  Alcotest.(check bool) "alarm in the health log" true
    (List.exists
       (fun (a : H.Rules.alarm) -> a.H.Rules.al_name = "in_doubt_age")
       (K.health_alarms cl));
  Alcotest.(check int) "health.alarm counter bumped" 1
    (Stats.get (L.Engine.stats sim.L.engine) "health.alarm.in_doubt_age");
  (* Alarm latency: the watchdog can only see the incident once the age
     crosses the threshold, and must say so within two window closes. *)
  let threshold = H.Rules.default.in_doubt_age_us in
  let kill_at =
    (* The coordinator died at the first decide; every event it emitted
       precedes the crash, so the last one bounds the kill time. *)
    List.fold_left
      (fun acc (r : Obs.record) ->
        match r.Obs.ev with
        | Obs.Commit _ | Obs.Abort _ -> max acc r.Obs.at
        | _ -> acc)
      0
      (Locus_check.History.events hist)
  in
  let _, _, alarm_at =
    List.find (fun (_, n, _) -> n = "in_doubt_age") alarms
  in
  Alcotest.(check bool)
    (Printf.sprintf "alarm at %d us within 2 windows of crossing (kill <= %d us)"
       alarm_at kill_at)
    true
    (alarm_at <= kill_at + threshold + (2 * window));
  (* The sampler ran and built series. *)
  Alcotest.(check bool) "windows closed" true (K.health_windows cl > 0);
  Alcotest.(check bool) "in_doubt series exists" true
    (List.mem_assoc "in_doubt" (List.map (fun (n, s) -> (n, s)) (K.health_series cl)))

(* {1 Arming the plane never keeps a run alive} *)

(* Every RPC leaves a cancelled 30 s timeout timer queued. The sampler
   must stop at the drain anyway: the armed run ends within one window of
   the unarmed one, and the retained ring still shows the workload. *)
let drain_window = 100_000

let drain_runs =
  lazy
    (let spec = W.gen ~seed:42 ~sites:3 () in
     (snd (W.run ~seed:42 spec), snd (W.run ~health:drain_window ~seed:42 spec)))

let test_armed_run_ends_at_drain () =
  let off, on = Lazy.force drain_runs in
  let t_off = L.Engine.now off.L.engine and t_on = L.Engine.now on.L.engine in
  Alcotest.(check bool)
    (Printf.sprintf "armed run ends at %d us, unarmed at %d us" t_on t_off)
    true
    (t_on >= t_off && t_on <= t_off + drain_window)

let test_armed_ring_keeps_workload () =
  let _, on = Lazy.force drain_runs in
  match List.assoc_opt "msgs" (K.health_series on.L.cluster) with
  | None -> Alcotest.fail "no msgs series"
  | Some s ->
    Alcotest.(check bool) "a retained msgs window saw traffic" true
      (List.exists (fun p -> p.H.Series.p_value > 0) (H.Series.points s))

(* {1 The two sweep oracles and the inversion} *)

let health_cfg fault_every =
  { Ex.default_config with Ex.sites = 3; fault_every; health_window = 100_000 }

let test_sweep_clean_no_false_alarms () =
  let r = Ex.sweep ~config:(health_cfg None) ~seeds:(Ex.seeds ~n:25 ~from:40) () in
  Alcotest.(check int) "25 clean seeds checked" 25 r.Ex.checked;
  Alcotest.(check (list int)) "no failures (in particular no false alarms)" []
    (List.map (fun f -> f.Ex.f_seed) r.Ex.failures)

let test_sweep_kill_alarm_liveness () =
  (* Kill-coordinator seeds block under 2PC — the health lane excuses the
     blocking and instead demands the in_doubt_age alarm. *)
  let r =
    Ex.sweep ~config:(health_cfg (Some 3)) ~seeds:(Ex.seeds ~n:25 ~from:40) ()
  in
  Alcotest.(check (list int)) "every blocked seed alarmed" []
    (List.map (fun f -> f.Ex.f_seed) r.Ex.failures)

let test_break_health_fails_liveness_oracle () =
  Mutant.(with_armed [ Health ]) @@ fun () ->
  let r =
    Ex.sweep ~config:(health_cfg (Some 3)) ~seeds:(Ex.seeds ~n:25 ~from:40) ()
  in
  Alcotest.(check bool) "muted watchdog caught by the oracle" true
    (r.Ex.failures <> []);
  Alcotest.(check bool) "failure names the alarm-liveness oracle" true
    (List.exists
       (fun f ->
         List.exists
           (fun v -> contains ~affix:"alarm liveness" v)
           f.Ex.f_health)
       r.Ex.failures)

let suite =
  [
    ( "health",
      [
        Alcotest.test_case "series ring bound" `Quick test_series_ring;
        Alcotest.test_case "sampler counter/gauge/interval-p99" `Quick
          test_sampler_sources;
        Alcotest.test_case "rules edge-triggered" `Quick test_rules_edge_trigger;
        Alcotest.test_case "degraded streak + break-health mute" `Quick
          test_rules_degraded_streak_and_break;
        Alcotest.test_case "health RPC + unreachable poll" `Quick
          test_health_rpc_and_poll;
        Alcotest.test_case "coordinator kill raises in_doubt_age" `Quick
          test_kill_coordinator_raises_in_doubt_alarm;
        Alcotest.test_case "armed run ends at the drain" `Quick
          test_armed_run_ends_at_drain;
        Alcotest.test_case "armed ring keeps the workload" `Quick
          test_armed_ring_keeps_workload;
        Alcotest.test_case "sweep: clean seeds raise no alarm" `Quick
          test_sweep_clean_no_false_alarms;
        Alcotest.test_case "sweep: kill seeds must alarm" `Quick
          test_sweep_kill_alarm_liveness;
        Alcotest.test_case "break-health flags muted watchdog" `Quick
          test_break_health_fails_liveness_oracle;
      ] );
  ]
