(* Primary-copy file replication (§5.2): placement, versioned commit
   propagation, secondary reads, failover when the primary is lost,
   degraded-copy write refusal, and partition-heal reconciliation. *)

module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module R = Locus_repl
module T = Locus_net.Transport
module Ck = Locus_check

let stats sim = L.Engine.stats sim.L.engine

let repl_sim ?(seed = 0) ?(n_sites = 3) ?(factor = 2) () =
  let config = K.Config.with_replication ~n_sites ~factor in
  L.make ~seed ~config ~n_sites ()

(* {1 Placement} *)

let test_placement () =
  let vols = R.Placement.volumes ~n_sites:4 ~factor:2 in
  Alcotest.(check int) "one volume per site" 4 (List.length vols);
  List.iter
    (fun (vid, hosts) ->
      Alcotest.(check int) "factor hosts" 2 (List.length hosts);
      Alcotest.(check int) "primary is the home site" vid
        (R.Placement.primary hosts);
      Alcotest.(check (list int))
        "secondary wraps around" [ (vid + 1) mod 4 ]
        (R.Placement.secondaries hosts);
      Alcotest.(check bool) "hosts distinct" true
        (List.length (List.sort_uniq Int.compare hosts) = List.length hosts))
    vols;
  (* factor clamps to the cluster size. *)
  List.iter
    (fun (_, hosts) -> Alcotest.(check int) "clamped" 2 (List.length hosts))
    (R.Placement.volumes ~n_sites:2 ~factor:5)

(* {1 Commit propagation} *)

let test_versions_track_commits () =
  let sim = repl_sim () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"writer" (fun env ->
         let c = Api.creat env "/seq" ~vid:1 in
         for i = 1 to 3 do
           Api.pwrite env c ~pos:0 (Bytes.of_string (Printf.sprintf "v%d.." i));
           Api.commit_file env c
         done;
         Api.close env c));
  L.run sim;
  (* create = v1, three commits = v4, identical at every host. *)
  let vol = List.find (fun v -> v.K.rv_vid = 1) (K.replica_status cl) in
  Alcotest.(check int) "two hosts" 2 (List.length vol.K.rv_hosts);
  List.iter
    (fun h ->
      Alcotest.(check bool) "fresh" true h.K.rh_fresh;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "site %d at v4" h.K.rh_site)
        [ (1, 4) ] h.K.rh_versions)
    vol.K.rv_hosts;
  Alcotest.(check bool) "deltas applied" true
    (L.Stats.get (stats sim) "replica.apply" >= 3)

let test_exactly_once_under_faults () =
  (* The locus_chaos acceptance pin: the same three-commit run over a
     lossy network (drops, duplicates, reordering live on every leg) must
     land on exactly version 4 at every host — a lost reply retried after
     the commit executed, or a duplicated wire copy, must not re-commit.
     The fault counters prove the network actually misbehaved, and the
     dedup counters prove the reply cache is what absorbed it. *)
  let config =
    K.Config.with_net_faults ~drop:0.15 ~dup:0.15 ~reorder:2
      (K.Config.with_replication ~n_sites:3 ~factor:2)
  in
  let sim = L.make ~seed:3 ~config ~n_sites:3 () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"writer" (fun env ->
         let c = Api.creat env "/seq" ~vid:1 in
         for i = 1 to 3 do
           Api.pwrite env c ~pos:0 (Bytes.of_string (Printf.sprintf "v%d.." i));
           Api.commit_file env c
         done;
         Api.close env c));
  L.run sim;
  Alcotest.(check bool) "faults fired" true
    (L.Stats.get (stats sim) "net.drop" + L.Stats.get (stats sim) "net.dup" > 0);
  Alcotest.(check bool) "reply cache absorbed duplicates" true
    (L.Stats.get (stats sim) "net.dedup_hits"
     + L.Stats.get (stats sim) "net.dedup_waits"
     > 0);
  let vol = List.find (fun v -> v.K.rv_vid = 1) (K.replica_status cl) in
  List.iter
    (fun h ->
      Alcotest.(check bool) "fresh" true h.K.rh_fresh;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "site %d at exactly v4" h.K.rh_site)
        [ (1, 4) ] h.K.rh_versions)
    vol.K.rv_hosts;
  match L.Kernel.lookup cl "/seq" with
  | Some fid ->
    Alcotest.(check string) "last committed bytes" "v3.."
      (K.read_committed_oracle cl fid)
  | None -> Alcotest.fail "file vanished"

let test_secondary_serves_local_read () =
  (* A plain process at the secondary site reads committed data from its
     local copy — no round trip to the primary. *)
  let sim = repl_sim () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"writer" (fun env ->
         let c = Api.creat env "/near" ~vid:1 in
         Api.write_string env c "read me nearby";
         Api.commit_file env c;
         Api.close env c));
  L.run sim;
  let got = ref "" in
  ignore
    (Api.spawn_process cl ~site:2 ~name:"reader" (fun env ->
         let c = Api.open_file env "/near" in
         got := Bytes.to_string (Api.pread env c ~pos:0 ~len:14);
         Api.close env c));
  L.run sim;
  Alcotest.(check string) "committed bytes" "read me nearby" !got;
  Alcotest.(check bool) "served by the local replica" true
    (L.Stats.get (stats sim) "replica.local_reads" > 0)

(* {1 Failover} *)

let test_read_survives_primary_crash () =
  (* The acceptance scenario: commit at the primary, lose the primary,
     and committed data must still be readable from a secondary. *)
  let sim = repl_sim () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"writer" (fun env ->
         let c = Api.creat env "/precious" ~vid:1 in
         Api.write_string env c "precious data!";
         Api.commit_file env c;
         Api.close env c));
  L.run sim;
  let fid = Option.get (K.lookup cl "/precious") in
  Alcotest.(check int) "primary is site 1" 1 (K.storage_site cl fid);
  ignore
    (Api.spawn_process cl ~site:0 ~name:"chaos" (fun _ -> K.crash_site cl 1));
  L.run sim;
  Alcotest.(check int) "secondary elected" 2 (K.storage_site cl fid);
  let got = ref "" in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"reader" (fun env ->
         let c = Api.open_file env "/precious" in
         got := Bytes.to_string (Api.pread env c ~pos:0 ~len:14);
         Api.close env c));
  L.run sim;
  Alcotest.(check string) "still readable" "precious data!" !got

let test_degraded_copy_refuses_writes () =
  (* Isolate the primary: the surviving secondary takes over but cannot
     prove it has every committed version, so updates are refused with a
     clear error until reconciliation. Reads still work (flagged). *)
  let sim = repl_sim () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"writer" (fun env ->
         let c = Api.creat env "/frozen" ~vid:1 in
         Api.write_string env c "stable";
         Api.commit_file env c;
         Api.close env c));
  L.run sim;
  ignore
    (Api.spawn_process cl ~site:0 ~name:"chaos" (fun _ ->
         T.partition (K.transport cl) [ [ 1 ] ]));
  L.run sim;
  Alcotest.(check bool) "takeover copy degraded" false
    (K.replica_fresh cl ~site:2 ~vid:1);
  let refused = ref "" and got = ref "" in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"late-writer" (fun env ->
         let c = Api.open_file env "/frozen" in
         got := Bytes.to_string (Api.pread env c ~pos:0 ~len:6);
         (try Api.pwrite env c ~pos:0 (Bytes.of_string "mutiny")
          with Api.Error e -> refused := e)));
  L.run sim;
  Alcotest.(check string) "read still served" "stable" !got;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "write refused, reason names the degraded state"
    true
    (contains !refused "degraded")

(* {1 Reconciliation} *)

let test_heal_reconciles_missed_versions () =
  (* The secondary is partitioned away while the primary commits twice;
     after the heal its reconciliation pass pulls the missed versions and
     the copy returns to fresh. *)
  let sim = repl_sim () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"writer" (fun env ->
         let c = Api.creat env "/catchup" ~vid:1 in
         Api.write_string env c "base";
         Api.commit_file env c;
         (* Cut off the secondary (site 2), keep committing. *)
         T.partition (K.transport cl) [ [ 0; 1 ]; [ 2 ] ];
         Api.pwrite env c ~pos:0 (Bytes.of_string "one.");
         Api.commit_file env c;
         Api.pwrite env c ~pos:0 (Bytes.of_string "two.");
         Api.commit_file env c;
         Api.close env c;
         Engine.sleep 1_000_000;
         T.heal (K.transport cl)));
  L.run sim;
  Alcotest.(check bool) "secondary fresh again" true
    (K.replica_fresh cl ~site:2 ~vid:1);
  Alcotest.(check bool) "missed versions pulled" true
    (L.Stats.get (stats sim) "replica.reconciled" > 0);
  let vol = List.find (fun v -> v.K.rv_vid = 1) (K.replica_status cl) in
  let versions_at s =
    (List.find (fun h -> h.K.rh_site = s) vol.K.rv_hosts).K.rh_versions
  in
  Alcotest.(check (list (pair int int)))
    "versions converged" (versions_at 1) (versions_at 2)

let test_version_gap_triggers_pull () =
  (* One delta is lost (propagation suppressed for a single commit); the
     next delta arrives with a version gap, which the secondary resolves
     by pulling a full snapshot from the primary instead of applying. *)
  let sim = repl_sim () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"writer" (fun env ->
         let c = Api.creat env "/gap" ~vid:1 in
         Api.write_string env c "AAAA";
         Api.commit_file env c;
         (* v3 never reaches the secondary... *)
         Mutant.(with_armed [ Repl ]) (fun () ->
             Api.pwrite env c ~pos:0 (Bytes.of_string "BBBB");
             Api.commit_file env c);
         (* ...so v4's delta exposes the gap. *)
         Api.pwrite env c ~pos:0 (Bytes.of_string "CCCC");
         Api.commit_file env c;
         Api.close env c));
  Mutant.with_armed [] (fun () -> L.run sim);
  Alcotest.(check bool) "gap detected" true
    (L.Stats.get (stats sim) "replica.gaps" > 0);
  let vol = List.find (fun v -> v.K.rv_vid = 1) (K.replica_status cl) in
  List.iter
    (fun h ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "site %d caught up" h.K.rh_site)
        [ (1, 4) ] h.K.rh_versions)
    vol.K.rv_hosts

(* {1 The checker closes the loop} *)

let test_checker_catches_broken_propagation () =
  (* Self-test of the whole pipeline: silently drop commit propagation
     and the one-copy-serializability pass must flag unpermitted stale
     reads somewhere in a small sweep (seed 42 is a known reproducer). *)
  let module E = Ck.Explore in
  let cfg = { E.default_config with E.sites = 3; replicas = 2 } in
  let r =
    Mutant.(with_armed [ Repl ]) @@ fun () ->
    E.sweep ~config:cfg ~seeds:(E.seeds ~n:10 ~from:42) ()
  in
  Alcotest.(check bool) "stale reads flagged" true (r.E.failures <> []);
  let is_stale = function
    | { Ck.Checker.violation = Ck.Checker.Stale_read _; permitted = false } ->
      true
    | _ -> false
  in
  Alcotest.(check bool) "an unpermitted Stale_read violation" true
    (List.exists
       (fun f ->
         List.exists is_stale f.E.f_report.Ck.Checker.violations)
       r.E.failures)

let suite =
  [
    ( "repl",
      [
        Alcotest.test_case "placement" `Quick test_placement;
        Alcotest.test_case "versions track commits" `Quick
          test_versions_track_commits;
        Alcotest.test_case "exactly-once under faults" `Quick
          test_exactly_once_under_faults;
        Alcotest.test_case "secondary serves local read" `Quick
          test_secondary_serves_local_read;
        Alcotest.test_case "read survives primary crash" `Quick
          test_read_survives_primary_crash;
        Alcotest.test_case "degraded copy refuses writes" `Quick
          test_degraded_copy_refuses_writes;
        Alcotest.test_case "heal reconciles missed versions" `Quick
          test_heal_reconciles_missed_versions;
        Alcotest.test_case "version gap triggers pull" `Quick
          test_version_gap_triggers_pull;
        Alcotest.test_case "checker catches broken propagation" `Quick
          test_checker_catches_broken_propagation;
      ] );
  ]
