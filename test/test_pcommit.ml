(* Paxos Commit (Gray & Lamport): the acceptor state machine, the quorum
   decision function, and the end-to-end non-blocking property 2PC lacks —
   a coordinator killed between its durable decision and phase 2 must not
   leave participants in doubt forever. *)

module E = Engine
module V = Locus_disk.Volume
module P = Locus_pcommit.Pcommit
module A = Locus_pcommit.Acceptor
module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module LR = Locus_txn.Log_record
module W = Locus_check.Workload

let in_sim f =
  let e = E.create () in
  let result = ref None in
  ignore (E.spawn e (fun () -> result := Some (f e)));
  E.run e;
  Option.get !result

let tx ?(site = 0) seq = Txid.make ~site ~incarnation:1 ~seq

(* {1 The decision function} *)

let test_quorum_and_placement () =
  Alcotest.(check int) "f=0 quorum" 1 (P.quorum ~f:0);
  Alcotest.(check int) "f=1 quorum" 2 (P.quorum ~f:1);
  Alcotest.(check int) "f=2 quorum" 3 (P.quorum ~f:2);
  Alcotest.(check (list int)) "f=1 acceptors from site 1"
    [ 1; 2; 3 ]
    (P.acceptors ~n_sites:4 ~f:1 ~coordinator:1);
  Alcotest.(check (list int)) "wraps around"
    [ 3; 0; 1 ]
    (P.acceptors ~n_sites:4 ~f:1 ~coordinator:3);
  Alcotest.(check bool) "coordinator is always an acceptor" true
    (List.for_all
       (fun c -> List.mem c (P.acceptors ~n_sites:5 ~f:2 ~coordinator:c))
       [ 0; 1; 2; 3; 4 ]);
  (match P.acceptors ~n_sites:2 ~f:1 ~coordinator:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "2 sites cannot host 3 acceptors")

let test_decide () =
  let ps = [ 1; 2 ] in
  (* All instances Prepared at quorum across 2 of 3 acceptors. *)
  Alcotest.(check bool) "unanimous yes commits" true
    (P.decide ~f:1 ~participants:ps
       ~votes:[ [ (1, true); (2, true) ]; [ (1, true); (2, true) ] ]
    = P.Commit);
  (* One instance Aborted at quorum: abort regardless of the other. *)
  Alcotest.(check bool) "one quorum no aborts" true
    (P.decide ~f:1 ~participants:ps
       ~votes:[ [ (1, true); (2, false) ]; [ (1, true); (2, false) ] ]
    = P.Abort);
  (* A yes registered at only one acceptor is not at quorum: undecided,
     and the open instance is reported for closure. *)
  (match
     P.decide ~f:1 ~participants:ps
       ~votes:[ [ (1, true); (2, true) ]; [ (2, true) ] ]
   with
  | P.Undecided open_instances ->
    Alcotest.(check (list int)) "instance 1 open" [ 1 ] open_instances
  | d -> Alcotest.failf "expected undecided, got %a" P.pp_decision d);
  (* Nothing registered anywhere: everything is open. *)
  (match P.decide ~f:1 ~participants:ps ~votes:[ []; [] ] with
  | P.Undecided [ 1; 2 ] -> ()
  | d -> Alcotest.failf "expected both open, got %a" P.pp_decision d);
  (* Closure offered ballot-1 Aborted votes and one stuck at quorum. *)
  Alcotest.(check bool) "closed instance aborts" true
    (P.decide ~f:1 ~participants:ps
       ~votes:[ [ (1, true); (2, false) ]; [ (1, true) ]; [ (2, false) ] ]
    = P.Abort)

(* {1 Acceptor registration, persistence, replay} *)

let with_acceptor f =
  in_sim (fun e ->
      let vol = V.create e ~vid:7 ~page_size:256 () in
      f (A.create vol) vol)

let test_acceptor_first_writer_wins () =
  with_acceptor (fun a _vol ->
      let txid = tx 1 in
      Alcotest.(check bool) "yes sticks" true
        (A.register a ~txid ~participant:1 ~vote:true ~ballot:0
           ~participants:[ 1; 2 ]);
      (* A later ballot-1 Aborted offer for the same instance must lose. *)
      Alcotest.(check bool) "closure offer returns the holder" true
        (A.register a ~txid ~participant:1 ~vote:false ~ballot:1
           ~participants:[ 1; 2 ]);
      Alcotest.(check (option bool)) "registration immutable" (Some true)
        (A.registered a ~txid ~participant:1);
      (* Distinct instances are independent. *)
      Alcotest.(check bool) "no sticks on a free instance" false
        (A.register a ~txid ~participant:2 ~vote:false ~ballot:0
           ~participants:[ 1; 2 ]);
      let participants, votes = A.votes_for a txid in
      Alcotest.(check (list int)) "participant union" [ 1; 2 ] participants;
      Alcotest.(check int) "two instances" 2 (List.length votes))

let test_acceptor_replay () =
  with_acceptor (fun a vol ->
      let txid = tx 2 in
      ignore
        (A.register a ~txid ~participant:1 ~vote:true ~ballot:0
           ~participants:[ 1 ]);
      ignore
        (A.register a ~txid:(tx 3) ~participant:2 ~vote:false ~ballot:0
           ~participants:[ 2 ]);
      A.crash a;
      Alcotest.(check int) "volatile state gone" 0 (A.size a);
      A.recover a;
      Alcotest.(check int) "both registrations replayed" 2 (A.size a);
      Alcotest.(check (option bool)) "value survives" (Some true)
        (A.registered a ~txid ~participant:1);
      (* forget releases the log record: replay after forget finds nothing. *)
      A.forget a txid;
      A.forget a (tx 3);
      A.crash a;
      A.recover a;
      Alcotest.(check int) "forgotten" 0 (A.size a);
      ignore vol)

(* {1 End-to-end: the non-blocking property} *)

let oracle cl path =
  match K.lookup cl path with
  | Some fid -> K.read_committed_oracle cl fid
  | None -> ""

let check_atomic cl =
  let a = oracle cl "/a" and b = oracle cl "/b" in
  match (a, b) with
  | "AAAA", "BBBB" -> `Committed
  | "", "" -> `Aborted
  | _ -> Alcotest.failf "non-atomic state: /a=%S /b=%S" a b

(* The test_recovery scenario, under a configurable commit protocol:
   writes to /a (site 1) and /b (site 2), coordinated from site 0. *)
let run_scenario ~config ~inject =
  let sim = L.make ~n_sites:3 ~config () in
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

let paxos_config = K.Config.with_paxos ~f:1 (K.Config.default ~n_sites:3)

let kill_coordinator_at_decide cl =
  (K.hooks cl).K.on_decided <-
    (fun _txid status ->
      if status = LR.Committed then
        (* The decision is durable, phase 2 never leaves, and the
           coordinator NEVER comes back. *)
        K.crash_site cl 0)

let test_paxos_happy_path () =
  let sim, outcome = run_scenario ~config:paxos_config ~inject:(fun _ -> ()) in
  Alcotest.(check bool) "client saw commit" true (outcome = Some K.Committed);
  Alcotest.(check bool) "durably committed" true
    (check_atomic sim.L.cluster = `Committed);
  let stats = L.Engine.stats sim.L.engine in
  Alcotest.(check bool) "votes went through the acceptors" true
    (L.Stats.get stats "pcommit.votes_cast" > 0
    && L.Stats.get stats "pcommit.votes_seen" > 0);
  Alcotest.(check (list (pair int reject))) "nobody in doubt" []
    (List.map
       (fun (s, t) -> (s, ignore t))
       (K.in_doubt_participants sim.L.cluster))

let test_2pc_coordinator_kill_blocks () =
  (* Satellite: pin the blocking behaviour Paxos Commit exists to fix.
     Under plain 2PC the same kill leaves every participant in doubt —
     holding locks — until the coordinator site comes back. *)
  let sim, _ =
    run_scenario
      ~config:(K.Config.default ~n_sites:3)
      ~inject:kill_coordinator_at_decide
  in
  let cl = sim.L.cluster in
  Alcotest.(check bool) "participants blocked in-doubt" true
    (K.in_doubt_participants cl <> []);
  Alcotest.(check bool) "in_doubt gauge raised" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "txn.in_doubt" > 0);
  (* Only coordinator recovery can unblock them. *)
  K.restart_site cl 0;
  L.run sim;
  Alcotest.(check bool) "unblocked after coordinator recovery" true
    (K.in_doubt_participants cl = []);
  Alcotest.(check bool) "and consistent" true (check_atomic cl = `Committed)

let test_paxos_coordinator_kill_resolves () =
  (* The same kill under Paxos Commit: participants learn the commit from
     the acceptor quorum (sites 1 and 2 survive) with the coordinator
     permanently dead. *)
  let sim, _ =
    run_scenario ~config:paxos_config ~inject:kill_coordinator_at_decide
  in
  let cl = sim.L.cluster in
  Alcotest.(check bool) "nobody left in doubt" true
    (K.in_doubt_participants cl = []);
  Alcotest.(check bool) "committed without the coordinator" true
    (check_atomic cl = `Committed);
  Alcotest.(check bool) "resolved from the acceptors" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "pcommit.resolved_commit" > 0);
  Alcotest.(check int) "gauge back to zero" 0
    (L.Stats.get (L.Engine.stats sim.L.engine) "txn.in_doubt")

let test_break_paxos_blocks () =
  (* Self-test inversion: acceptors that ack votes without registering
     them make the decision unlearnable, so the same scenario must end
     with blocked participants — proving the liveness oracle has teeth. *)
  Mutant.(with_armed [ Paxos ]) @@ fun () ->
  let sim, _ =
    run_scenario ~config:paxos_config ~inject:kill_coordinator_at_decide
  in
  Alcotest.(check bool) "broken acceptors leave participants blocked" true
    (K.in_doubt_participants sim.L.cluster <> [])

let test_query_outcome_retry_during_recovery () =
  (* Regression: a participant whose recovery asks the coordinator for an
     outcome while the coordinator is itself still recovering must get
     a Retry error (and retry), not a hard error it would misread as failure.
     Crash both after the decision and reboot them at the same instant so
     the participant's query races the coordinator's own log replay. *)
  let sim, _ =
    run_scenario
      ~config:(K.Config.default ~n_sites:3)
      ~inject:(fun cl ->
        (K.hooks cl).K.on_decided <-
          (fun _txid status ->
            if status = LR.Committed then begin
              K.crash_site cl 2;
              K.crash_site cl 0;
              Engine.schedule ~delay:2_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 0);
              Engine.schedule ~delay:2_000_000 (K.engine cl) (fun () ->
                  K.restart_site cl 2)
            end))
  in
  let stats = L.Engine.stats sim.L.engine in
  Alcotest.(check bool) "query bounced off the recovering coordinator" true
    (L.Stats.get stats "recovery.outcome_retries" > 0);
  Alcotest.(check bool) "and still converged" true
    (check_atomic sim.L.cluster = `Committed);
  Alcotest.(check bool) "nobody left in doubt" true
    (K.in_doubt_participants sim.L.cluster = [])

let test_acceptor_gc_after_acks () =
  (* Satellite: acceptor state is garbage — and its log records released —
     once every participant acked phase 2, but never before: the
     coordinator-kill test above proves in-doubt resolution still finds
     the registrations when phase 2 was cut short. *)
  let sim, outcome = run_scenario ~config:paxos_config ~inject:(fun _ -> ()) in
  Alcotest.(check bool) "committed" true (outcome = Some K.Committed);
  let stats = L.Engine.stats sim.L.engine in
  Alcotest.(check bool) "forget was broadcast after full acks" true
    (L.Stats.get stats "pcommit.forget_sent" > 0);
  Alcotest.(check bool) "acceptors released the registrations" true
    (L.Stats.get stats "pcommit.forgotten" > 0);
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "site %d acceptor empty" (K.site k))
        0
        (A.size (K.acceptor k)))
    (K.kernels sim.L.cluster)

let test_workload_sweep_paxos_liveness () =
  (* A miniature of the CI sweep: coordinator-kill faults across seeds,
     every history 1SR and every run drains with nobody blocked. *)
  let cfg =
    {
      Locus_check.Explore.default_config with
      sites = 3;
      fault_every = Some 3;
      commit = `Paxos 1;
    }
  in
  List.iter
    (fun seed ->
      let _, _, report, blocked = Locus_check.Explore.run_seed cfg seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d serializable" seed)
        true
        (Locus_check.Checker.ok report);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d live" seed)
        true (blocked = []))
    (Locus_check.Explore.seeds ~n:25 ~from:40)

let test_workload_2pc_kill_blocks () =
  (* The same fault under 2PC blocks: documents (and pins) the contrast. *)
  let spec = W.gen ~seed:42 ~sites:3 () in
  let _, sim =
    W.run ~fault:(W.Kill_coordinator { after_decides = 1 }) ~commit:`Two_phase
      ~seed:42 spec
  in
  Alcotest.(check bool) "2PC leaves blocked participants" true
    (W.blocked sim <> [])

let suite =
  [
    ( "pcommit",
      [
        Alcotest.test_case "quorum and placement" `Quick
          test_quorum_and_placement;
        Alcotest.test_case "decision function" `Quick test_decide;
        Alcotest.test_case "acceptor first-writer-wins" `Quick
          test_acceptor_first_writer_wins;
        Alcotest.test_case "acceptor crash replay" `Quick test_acceptor_replay;
        Alcotest.test_case "paxos happy path" `Quick test_paxos_happy_path;
        Alcotest.test_case "2pc blocks on coordinator kill" `Quick
          test_2pc_coordinator_kill_blocks;
        Alcotest.test_case "paxos resolves coordinator kill" `Quick
          test_paxos_coordinator_kill_resolves;
        Alcotest.test_case "break-paxos leaves blocked" `Quick
          test_break_paxos_blocks;
        Alcotest.test_case "query outcome retries during recovery" `Quick
          test_query_outcome_retry_during_recovery;
        Alcotest.test_case "acceptor GC after full acks" `Quick
          test_acceptor_gc_after_acks;
        Alcotest.test_case "sweep: paxos liveness" `Quick
          test_workload_sweep_paxos_liveness;
        Alcotest.test_case "sweep: 2pc kill blocks" `Quick
          test_workload_2pc_kill_blocks;
      ] );
  ]
