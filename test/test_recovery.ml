(* Failure and recovery (§4.3-4.4): crashes injected at every stage of
   two-phase commit, partitions, and reboot-time recovery. The invariant
   throughout: a transaction's effects are all-or-nothing, across every
   file at every site, no matter when a site dies. *)

module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module LR = Locus_txn.Log_record

let oracle cl path =
  match K.lookup cl path with
  | Some fid -> K.read_committed_oracle cl fid
  | None -> ""

(* A two-site-data transaction: writes "AAAA" to /a (site 1) and "BBBB" to
   /b (site 2), coordinated from site 0. Returns the outcome seen by the
   client, or None if the client process was killed. *)
let run_2pc_scenario ~inject =
  let sim = L.make ~n_sites:3 () in
  let cl = sim.L.cluster in
  inject cl;
  let outcome = ref None in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"client" (fun env ->
         let a = Api.creat env "/a" ~vid:1 in
         let b = Api.creat env "/b" ~vid:2 in
         Api.begin_trans env;
         Api.write_string env a "AAAA";
         Api.write_string env b "BBBB";
         outcome := Some (Api.end_trans env)));
  L.run sim;
  (sim, !outcome)

let check_atomic cl =
  let a = oracle cl "/a" and b = oracle cl "/b" in
  match (a, b) with
  | "AAAA", "BBBB" -> `Committed
  | "", "" -> `Aborted
  | _ -> Alcotest.failf "non-atomic state: /a=%S /b=%S" a b

(* {1 Crashes at exact protocol points} *)

let test_no_crash_baseline () =
  let sim, outcome = run_2pc_scenario ~inject:(fun _ -> ()) in
  Alcotest.(check bool) "client saw commit" true (outcome = Some K.Committed);
  Alcotest.(check bool) "durably committed" true (check_atomic sim.L.cluster = `Committed)

let test_crash_participant_before_prepare () =
  (* Site 2 dies before the transaction reaches two-phase commit: topology
     change aborts the active transaction (§4.3). *)
  let sim, outcome =
    run_2pc_scenario ~inject:(fun cl ->
        ignore
          (Api.spawn_process cl ~site:0 ~name:"chaos" (fun _ ->
               Engine.sleep 150_000;
               K.crash_site cl 2)))
  in
  ignore outcome;
  Alcotest.(check bool) "atomic" true (check_atomic sim.L.cluster <> `Committed);
  Alcotest.(check string) "site 1 file rolled back" "" (oracle sim.L.cluster "/a")

let test_crash_participant_after_prepare_before_decide () =
  (* A participant votes yes then dies. The coordinator cannot collect all
     votes (or cannot deliver phase 2) — either way, after the participant
     reboots and queries the coordinator, both sites converge. *)
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_participant_prepared <-
          (fun site txid _vote ->
            if site = 2 then begin
              (K.hooks cl).K.on_participant_prepared <- (fun _ _ _ -> ());
              ignore txid;
              K.crash_site cl 2;
              Engine.schedule ~delay:2_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 2)
            end))
  in
  Alcotest.(check bool) "atomic after reboot+recovery" true
    (check_atomic sim.L.cluster <> `Partial);
  (* Whatever the outcome, /a and /b agree. *)
  ignore (check_atomic sim.L.cluster)

let test_crash_coordinator_before_decide () =
  (* The coordinator writes its log, sends prepares, then dies before the
     commit mark. On reboot its recovery pass finds status Unknown and
     aborts; prepared participants learn the outcome by asking. *)
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_participant_prepared <-
          (fun site _txid _vote ->
            if site = 2 then begin
              (* Both participants have durable prepare records now (site 1
                 prepared before site 2 in site order... not guaranteed;
                 crash anyway — atomicity must hold regardless). *)
              K.crash_site cl 0;
              Engine.schedule ~delay:3_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 0)
            end))
  in
  Alcotest.(check bool) "aborted atomically" true
    (check_atomic sim.L.cluster = `Aborted);
  Alcotest.(check bool) "abort replayed at reboot" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "recovery.replayed_abort" > 0)

let test_crash_coordinator_after_decide () =
  (* The commit mark is durable; the coordinator dies before phase 2. Its
     reboot recovery must push the commit out to the participants. *)
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed then begin
              K.crash_site cl 0;
              Engine.schedule ~delay:3_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 0)
            end))
  in
  Alcotest.(check bool) "committed everywhere" true
    (check_atomic sim.L.cluster = `Committed);
  Alcotest.(check bool) "commit replayed at reboot" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "recovery.replayed_commit" > 0)

let test_crash_participant_after_decide () =
  (* The participant dies after the commit point, before (or during)
     phase 2. Its reboot recovery finds the prepare record, asks the
     coordinator, and completes the commit from its own log. *)
  let sim, outcome =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed then begin
              K.crash_site cl 2;
              Engine.schedule ~delay:3_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 2)
            end))
  in
  Alcotest.(check bool) "client saw commit" true (outcome = Some K.Committed);
  Alcotest.(check bool) "committed everywhere after reboot" true
    (check_atomic sim.L.cluster = `Committed)

let test_partition_aborts_active () =
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        ignore
          (Api.spawn_process cl ~site:0 ~name:"chaos" (fun _ ->
               Engine.sleep 150_000;
               Locus_net.Transport.partition (K.transport cl) [ [ 0; 1 ]; [ 2 ] ];
               Engine.sleep 2_000_000;
               Locus_net.Transport.heal (K.transport cl))))
  in
  (* check_atomic itself fails the test on any partial state. *)
  ignore (check_atomic sim.L.cluster)

let test_in_doubt_waits_for_coordinator () =
  (* The participant reboots while the coordinator is down: it must stay
     in doubt (data locked) until the coordinator answers, then commit. *)
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed then begin
              K.crash_site cl 2;
              K.crash_site cl 0;
              (* Participant reboots first: coordinator still down. *)
              Engine.schedule ~delay:2_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 2);
              Engine.schedule ~delay:20_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 0)
            end))
  in
  Alcotest.(check bool) "eventually committed" true
    (check_atomic sim.L.cluster = `Committed)

let test_recovery_releases_locks () =
  (* After recovery completes, the file is usable again by new work. *)
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed then begin
              K.crash_site cl 2;
              Engine.schedule ~delay:3_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 2)
            end))
  in
  let cl = sim.L.cluster in
  let ok = ref false in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"late" (fun env ->
         let b = Api.open_file env "/b" in
         Api.begin_trans env;
         Api.seek env b ~pos:0;
         (match Api.lock env b ~len:4 ~mode:L.Mode.Exclusive () with
         | Api.Granted -> ()
         | Api.Conflict _ -> Alcotest.fail "stale lock survived recovery");
         Api.pwrite env b ~pos:0 (Bytes.of_string "bbbb");
         (match Api.end_trans env with
         | K.Committed -> ok := true
         | K.Aborted -> ())));
  L.run sim;
  Alcotest.(check bool) "new transaction ran" true !ok;
  Alcotest.(check string) "new value" "bbbb" (oracle cl "/b")

let test_crashed_client_process () =
  (* The client's own site dies mid-transaction (before 2PC): everything
     rolls back at the storage sites once the topology sweep runs. *)
  let sim = L.make ~n_sites:3 () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"doomed" (fun env ->
         let a = Api.creat env "/a" ~vid:1 in
         Api.begin_trans env;
         Api.write_string env a "half-";
         Engine.sleep 10_000_000 (* never wakes: site dies *)));
  ignore
    (Api.spawn_process cl ~site:1 ~name:"chaos" (fun _ ->
         Engine.sleep 1_000_000;
         K.crash_site cl 0));
  L.run sim;
  Alcotest.(check string) "rolled back" "" (oracle cl "/a");
  (* The storage site's lock table no longer holds the dead transaction's
     locks. *)
  let k1 = K.kernel cl 1 in
  let fid = Option.get (K.lookup cl "/a") in
  (match K.lock_table k1 fid with
  | Some table ->
    Alcotest.(check int) "no stale locks" 0 (Locus_lock.Lock_table.lock_count table)
  | None -> ());
  Alcotest.(check bool) "storage-site abort ran" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "txn.storage_site_aborts" > 0
    || L.Stats.get (L.Engine.stats sim.L.engine) "txn.topology_aborts" > 0)

let suite =
  [
    ( "recovery.2pc",
      [
        Alcotest.test_case "baseline" `Quick test_no_crash_baseline;
        Alcotest.test_case "participant dies pre-prepare" `Quick
          test_crash_participant_before_prepare;
        Alcotest.test_case "participant dies post-prepare" `Quick
          test_crash_participant_after_prepare_before_decide;
        Alcotest.test_case "coordinator dies pre-decide" `Quick
          test_crash_coordinator_before_decide;
        Alcotest.test_case "coordinator dies post-decide" `Quick
          test_crash_coordinator_after_decide;
        Alcotest.test_case "participant dies post-decide" `Quick
          test_crash_participant_after_decide;
        Alcotest.test_case "partition aborts" `Quick test_partition_aborts_active;
        Alcotest.test_case "in doubt waits" `Quick test_in_doubt_waits_for_coordinator;
        Alcotest.test_case "recovery releases locks" `Quick test_recovery_releases_locks;
        Alcotest.test_case "client site dies" `Quick test_crashed_client_process;
      ] );
  ]

(* Appended: harder failure schedules. *)

let test_double_crash_during_recovery () =
  (* The participant reboots, starts asking for the outcome, and crashes
     AGAIN before it hears back; its second recovery must still converge. *)
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed then begin
              K.crash_site cl 2;
              K.crash_site cl 0;
              (* Reboot participant first (coordinator down: stays in
                 doubt), crash it again mid-doubt, reboot everything. *)
              Engine.schedule ~delay:2_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 2);
              Engine.schedule ~delay:6_000_000 (K.engine cl) (fun () ->
                  K.crash_site cl 2);
              Engine.schedule ~delay:9_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 2);
              Engine.schedule ~delay:14_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 0)
            end))
  in
  Alcotest.(check bool) "converged to committed" true
    (check_atomic sim.L.cluster = `Committed)

let test_coordinator_crash_loop () =
  (* The coordinator crashes after the mark, reboots, replays phase 2,
     and crashes again right away; the log is retained until processing
     completes, so the second reboot finishes the job. *)
  let crashes = ref 0 in
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed && !crashes = 0 then begin
              incr crashes;
              K.crash_site cl 0;
              Engine.schedule ~delay:2_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 0);
              (* Second crash lands during/after the first recovery pass. *)
              Engine.schedule ~delay:2_300_000 (K.engine cl) (fun () ->
                  K.crash_site cl 0);
              Engine.schedule ~delay:5_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 0)
            end))
  in
  Alcotest.(check bool) "still committed" true
    (check_atomic sim.L.cluster = `Committed)

let test_all_sites_crash_and_reboot () =
  (* Power failure: every site dies after the commit mark; on reboot the
     cluster converges to committed from logs alone. *)
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed then begin
              K.crash_site cl 0;
              K.crash_site cl 1;
              K.crash_site cl 2;
              Engine.schedule ~delay:2_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 1);
              Engine.schedule ~delay:2_500_000 (K.engine cl) (fun () ->
                  K.restart_site cl 2);
              Engine.schedule ~delay:3_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 0)
            end))
  in
  Alcotest.(check bool) "whole-cluster reboot converges" true
    (check_atomic sim.L.cluster = `Committed)

(* {1 Partition (not crash) during an in-flight 2PC} *)

module T = Locus_net.Transport

let test_partition_between_prepare_and_decide () =
  (* The wire between coordinator (site 0) and one participant (site 2)
     breaks right after the participant's yes-vote, and heals later. No
     site loses state — this is purely a connectivity hole in the middle
     of the protocol. Whatever the coordinator decides (commit if it got
     the vote in time, abort via the §4.3 topology sweep otherwise), both
     storage sites must converge to the same outcome after the heal. *)
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_participant_prepared <-
          (fun site _txid _vote ->
            if site = 2 then begin
              (K.hooks cl).K.on_participant_prepared <- (fun _ _ _ -> ());
              T.partition (K.transport cl) [ [ 0; 1 ]; [ 2 ] ];
              Engine.schedule ~delay:5_000_000 (K.engine cl) (fun () ->
                  T.heal (K.transport cl))
            end))
  in
  ignore (check_atomic sim.L.cluster)

let test_partition_between_decide_and_phase2 () =
  (* The commit mark is durable at the coordinator, then the participant
     becomes unreachable before phase 2 lands. The phase-2 retry loop
     outlives the partition, so after the heal the participant learns the
     commit without needing a reboot. *)
  let sim, outcome =
    run_2pc_scenario ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed then begin
              T.partition (K.transport cl) [ [ 0; 1 ]; [ 2 ] ];
              Engine.schedule ~delay:5_000_000 (K.engine cl) (fun () ->
                  T.heal (K.transport cl))
            end))
  in
  Alcotest.(check bool) "client saw commit" true (outcome = Some K.Committed);
  Alcotest.(check bool) "committed on both sides of the healed partition"
    true
    (check_atomic sim.L.cluster = `Committed)

let test_crash_inside_prepare_force () =
  (* Site 2 crashes while it forces its prepare log. The participant's
     fiber dies with its site: no vote, yes or no, may come from it while
     it is down. The force's window is read from a first, traced run of
     the same deterministic scenario; the second run is traced too. *)
  let module Otrace = Locus_otrace.Otrace in
  let tracer = ref None in
  let traced cl =
    let tr = Otrace.create (K.engine cl) in
    K.set_otracer cl (Some tr);
    tracer := Some tr
  in
  ignore (run_2pc_scenario ~inject:traced);
  let a, b =
    match
      List.find_map
        (fun (_, _, name, _, site, a, b) ->
          if name = "prepare.force" && site = 2 then Some (a, b) else None)
        (Otrace.spans (Option.get !tracer))
    with
    | Some w -> w
    | None -> Alcotest.fail "no prepare.force at site 2"
  in
  Alcotest.(check bool) "the force takes time" true (b > a);
  let from_dead = ref 0 in
  let sim, _ =
    run_2pc_scenario ~inject:(fun cl ->
        traced cl;
        Engine.schedule ~delay:((a + b) / 2) (K.engine cl) (fun () ->
            K.crash_site cl 2;
            Engine.schedule ~delay:2_000_000 (K.engine cl) (fun () ->
                K.restart_site cl 2));
        (K.hooks cl).K.on_participant_prepared <-
          (fun site _txid _vote ->
            if not (Locus_net.Transport.site_up (K.transport cl) site) then
              incr from_dead))
  in
  Alcotest.(check int) "votes from a dead site" 0 !from_dead;
  ignore (check_atomic sim.L.cluster)

let suite =
  suite
  @ [
      ( "recovery.hard",
        [
          Alcotest.test_case "double crash during recovery" `Quick
            test_double_crash_during_recovery;
          Alcotest.test_case "crash inside the prepare force" `Quick
            test_crash_inside_prepare_force;
          Alcotest.test_case "coordinator crash loop" `Quick
            test_coordinator_crash_loop;
          Alcotest.test_case "whole-cluster power failure" `Quick
            test_all_sites_crash_and_reboot;
          Alcotest.test_case "partition between prepare and decide" `Quick
            test_partition_between_prepare_and_decide;
          Alcotest.test_case "partition between decide and phase 2" `Quick
            test_partition_between_decide_and_phase2;
        ] );
    ]
