(* E8 — §4.3-4.4: crash at each 2PC stage — outcome and recovery work.
   E9 — §4.1: process migration cost and the file-list merge race.
   E10 — §3.1: deadlock detection via the wait-for graph. *)

open Harness
module LR = Locus_txn.Log_record

(* One distributed transaction (files at sites 1 and 2, coordinated from
   site 0) with a crash injected at [stage]; returns (durable outcome,
   recovery stats). *)
let crash_at stage =
  let sim = fresh ~n_sites:3 () in
  let cl = sim.L.cluster in
  let crash_and_reboot site =
    K.crash_site cl site;
    Engine.schedule ~delay:3_000_000 (K.engine cl) (fun () -> K.restart_site cl site)
  in
  (match stage with
  | `None -> ()
  | `Participant_prepared ->
    (K.hooks cl).K.on_participant_prepared <-
      (fun site _ _ -> if site = 2 then crash_and_reboot 2)
  | `Coordinator_undecided ->
    (K.hooks cl).K.on_participant_prepared <-
      (fun site _ _ -> if site = 2 then crash_and_reboot 0)
  | `Coordinator_decided ->
    (K.hooks cl).K.on_decided <- (fun _ _ -> crash_and_reboot 0)
  | `Participant_decided ->
    (K.hooks cl).K.on_decided <- (fun _ _ -> crash_and_reboot 2));
  ignore
    (Api.spawn_process cl ~site:0 ~name:"client" (fun env ->
         let a = Api.creat env "/a" ~vid:1 in
         let b = Api.creat env "/b" ~vid:2 in
         Api.begin_trans env;
         Api.write_string env a "AAAA";
         Api.write_string env b "BBBB";
         ignore (Api.end_trans env)));
  L.run sim;
  let st = stats sim in
  let value path =
    match K.lookup cl path with
    | Some fid -> K.read_committed_oracle cl fid
    | None -> ""
  in
  let outcome =
    match (value "/a", value "/b") with
    | "AAAA", "BBBB" -> "committed"
    | "", "" -> "aborted"
    | _ -> "NON-ATOMIC!"
  in
  ( outcome,
    L.Stats.get st "recovery.replayed_commit",
    L.Stats.get st "recovery.replayed_abort" )

let e8 () =
  let rows =
    List.map
      (fun (name, stage, expect) ->
        let outcome, rc, ra = crash_at stage in
        [ name; outcome; Tables.i rc; Tables.i ra; expect ])
      [
        ("no crash", `None, "commits");
        ("participant dies after voting", `Participant_prepared, "converges");
        ("coordinator dies before the mark", `Coordinator_undecided, "aborts");
        ("coordinator dies after the mark", `Coordinator_decided, "commits");
        ("participant dies after the mark", `Participant_decided, "commits");
      ]
  in
  Tables.print_table
    ~title:
      "E8 / §4.3-4.4: crash at each two-phase-commit stage (durable outcome \
       after reboot + recovery; always atomic)"
    ~columns:[ "crash point"; "outcome"; "commit replays"; "abort replays"; "expected" ]
    rows;
  Tables.paper
    "failures before prepare are aborts; after the commit mark, recovery \
     completes the transaction from the logs; duplicate commit/abort \
     messages are harmless"

let e9 () =
  (* Migration cost. *)
  let sim = fresh ~n_sites:3 () in
  let per_hop = ref 0. in
  run_proc sim ~site:0 (fun env ->
      let e = K.engine (Api.cluster env) in
      let t0 = L.Engine.now e in
      let hops = 6 in
      for i = 1 to hops do
        Api.migrate env (i mod 3)
      done;
      per_hop := float_of_int (L.Engine.now e - t0) /. float_of_int hops /. 1000.);
  (* Merge race: members completing while the top-level process migrates. *)
  let race_retries migrations =
    let sim = fresh ~n_sites:3 () in
    run_proc sim ~site:0 (fun env ->
        let c = Api.creat env "/f" ~vid:1 in
        Api.begin_trans env;
        Api.write_string env c "top";
        let members =
          List.init 4 (fun i ->
              Api.fork env ~site:((i mod 2) + 1) ~name:"m" (fun m ->
                  Engine.sleep (5_000 * i);
                  Api.pwrite m c ~pos:(16 * (i + 1)) (Bytes.make 8 'm')))
        in
        for i = 1 to migrations do
          Api.migrate env (i mod 3)
        done;
        List.iter (Api.wait_pid env) members;
        ignore (Api.end_trans env));
    L.Stats.get (stats sim) "merge.retries"
  in
  Tables.print_table ~title:"E9 / §4.1: process migration"
    ~columns:[ "metric"; "value" ]
    [
      [ "migration cost (per hop)"; Tables.msf !per_hop ];
      [ "merge retries, 0 migrations"; Tables.i (race_retries 0) ];
      [ "merge retries, 3 migrations"; Tables.i (race_retries 3) ];
      [ "merge retries, 6 migrations"; Tables.i (race_retries 6) ];
    ];
  Tables.paper
    "a file-list arriving at a site the top-level process is migrating away \
     from is bounced and retried; the in-transit flag makes migration atomic"

(* §3.1, per cycle size: the service breaks the cycle with exactly one
   victim, and the other n-1 transactions commit. *)
let e10_claims =
  [
    Gate.each_equals "cycle" "one victim per cycle" "victims" (fun _ -> 1.);
    Gate.each_equals "cycle" "n-1 survivors commit" "survivors" (fun v ->
        v "cycle_size" -. 1.);
  ]

let e10 () =
  (* An n-cycle of transactions, each holding record i and requesting
     record i+1. *)
  let deadlock_n n =
    let sim = fresh ~n_sites:2 () in
    let resolved = ref 0 in
    run_proc sim ~site:0 (fun env ->
        let c = Api.creat env "/r" ~vid:1 in
        Api.write_string env c (String.make (64 * n) 'i');
        Api.commit_file env c;
        let e = K.engine (Api.cluster env) in
        let t0 = L.Engine.now e in
        let worker i =
          Api.fork env ~name:(Printf.sprintf "d%d" i) (fun w ->
              Api.begin_trans w;
              Api.seek w c ~pos:(i * 64);
              (match Api.lock w c ~len:64 ~mode:M.Exclusive () with
              | Api.Granted -> ()
              | Api.Conflict _ -> ());
              Engine.sleep 30_000;
              Api.seek w c ~pos:(64 * ((i + 1) mod n));
              (match Api.lock w c ~len:64 ~mode:M.Exclusive () with
              | Api.Granted -> ()
              | Api.Conflict _ -> ());
              ignore (Api.end_trans w))
        in
        let pids = List.init n worker in
        List.iter (Api.wait_pid env) pids;
        resolved := L.Engine.now e - t0);
    let st = stats sim in
    ( !resolved,
      L.Stats.get st "deadlock.scans",
      L.Stats.get st "deadlock.victims",
      L.Stats.get st "txn.committed" )
  in
  let runs = List.map (fun n -> (n, deadlock_n n)) [ 2; 3; 4; 6 ] in
  let rows =
    List.map
      (fun (n, (elapsed, scans, victims, committed)) ->
        [ Tables.i n; Tables.ms elapsed; Tables.i scans; Tables.i victims;
          Tables.i committed ])
      runs
  in
  Tables.print_table
    ~title:
      "E10 / §3.1: induced n-cycle deadlocks resolved by the wait-for-graph \
       service"
    ~columns:[ "cycle size"; "makespan"; "scans"; "victims"; "survivors committed" ]
    rows;
  Tables.paper
    "the kernel does not detect deadlock; a system process builds the \
     wait-for graph from exported lock state and applies a resolution policy";
  Gate.publish ~exp:"e10" ~claims:e10_claims
    (List.map
       (fun (n, (elapsed, scans, victims, committed)) ->
         Jsonout.single
           ~label:(Printf.sprintf "cycle %d" n)
           ~latency_us:elapsed
           ~extras:
             (List.map
                (fun (k, v) -> (k, float_of_int v))
                [
                  ("cycle_size", n); ("scans", scans); ("victims", victims);
                  ("survivors", committed);
                ])
           ())
       runs)
