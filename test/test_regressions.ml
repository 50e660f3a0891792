(* Regression tests for bugs found (and fixed) during development. Each
   test reproduces the original failure schedule. *)

module E = Engine
module V = Locus_disk.Volume
module C = Locus_disk.Cache
module FS = Locus_fs.Filestore
module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module M = L.Mode

let tx n = Owner.Transaction (Txid.make ~site:0 ~incarnation:1 ~seq:n)

(* Bug 1: two concurrent first-opens of the same file both missed the
   in-core table (the inode read yields) and the loser's record clobbered
   the winner's, silently dropping volatile modifications. *)
let test_concurrent_open_no_clobber () =
  let e = E.create () in
  let cache = C.create e in
  let store = FS.create e ~cache in
  let vol = V.create e ~vid:1 () in
  FS.mount store vol;
  let fid = ref None in
  ignore
    (E.spawn e (fun () ->
         fid := Some (FS.create_file store ~vid:1)));
  E.run e;
  let fid = Option.get !fid in
  (* Two openers race; the first also writes immediately. *)
  ignore
    (E.spawn e (fun () ->
         FS.open_file store fid;
         FS.write store fid ~owner:(tx 1) ~pos:0 (Bytes.of_string "precious")));
  ignore (E.spawn e (fun () -> FS.open_file store fid));
  E.run e;
  ignore
    (E.spawn e (fun () ->
         Alcotest.(check (list (pair int int)))
           "mods survived the racing open"
           [ (0, 8) ]
           (List.map
              (fun r -> (Byte_range.lo r, Byte_range.len r))
              (FS.modified_by store fid (tx 1)))));
  E.run e

(* Bug 2: two transactions' commit applications interleaved across disk
   I/O yield points; the second inode write clobbered the first. The
   per-file gate serializes them. *)
let test_interleaved_commit_apply () =
  let e = E.create () in
  let cache = C.create e in
  let store = FS.create e ~cache in
  let vol = V.create e ~vid:1 ~page_size:64 () in
  FS.mount store vol;
  ignore
    (E.spawn e (fun () ->
         let fid = FS.create_file store ~vid:1 in
         FS.open_file store fid;
         FS.write store fid ~owner:(tx 1) ~pos:0 (Bytes.of_string "AAAA");
         FS.write store fid ~owner:(tx 2) ~pos:8 (Bytes.of_string "BBBB");
         let i1 = FS.prepare store fid ~owner:(tx 1) in
         let i2 = FS.prepare store fid ~owner:(tx 2) in
         (* Fire both applications concurrently. *)
         ignore (E.spawn e (fun () -> FS.commit_prepared store i1));
         ignore (E.spawn e (fun () -> FS.commit_prepared store i2))));
  E.run e;
  ignore
    (E.spawn e (fun () ->
         let fid = File_id.make ~vid:1 ~ino:1 in
         FS.open_file store fid;
         Alcotest.(check string) "tx1 bytes" "AAAA"
           (Bytes.to_string (FS.read_committed store fid ~pos:0 ~len:4));
         Alcotest.(check string) "tx2 bytes" "BBBB"
           (Bytes.to_string (FS.read_committed store fid ~pos:8 ~len:4))));
  E.run e

(* Bug 3: a forked child inherits the parent's channels but the storage
   site's open refcount was not bumped, so the child's exit could drop
   in-core file state (including other owners' uncommitted data). *)
let test_fork_inherited_channel_refcount () =
  let sim = L.make ~n_sites:2 () in
  let cl = sim.L.cluster in
  let final = ref "" in
  ignore
    (Api.spawn_process cl ~site:0 (fun env ->
         let c = Api.creat env "/f" ~vid:1 in
         Api.write_string env c "base";
         Api.commit_file env c;
         (* Parent leaves uncommitted data, child (inheriting the channel)
            exits: the parent's volatile state must survive. *)
         Api.pwrite env c ~pos:0 (Bytes.of_string "dirt");
         let child = Api.fork env (fun cenv -> ignore (Api.pread cenv c ~pos:0 ~len:4)) in
         Api.wait_pid env child;
         final := Bytes.to_string (Api.pread env c ~pos:0 ~len:4);
         Api.close env c));
  L.run sim;
  Alcotest.(check string) "uncommitted data survived child exit" "dirt" !final

(* Bug 4: Prng.int produced negative values for some 64-bit draws
   (Int64.to_int sign bit). *)
let test_prng_never_negative () =
  let p = Prng.create ~seed:123456 in
  for _ = 1 to 100_000 do
    let v = Prng.int p 1_000_000 in
    if v < 0 then Alcotest.failf "negative draw %d" v
  done

(* Bug 5: a satisfied await_timeout left its timer in the event heap,
   stretching virtual time by the full timeout. *)
let test_cancelled_timer_does_not_stretch_clock () =
  let e =
    E.run_fn (fun t ->
        let iv = E.Ivar.create () in
        ignore (E.spawn t (fun () -> ignore (E.await_timeout iv ~timeout:60_000_000)));
        ignore
          (E.spawn t (fun () ->
               E.sleep 50;
               E.fill t iv ())))
  in
  Alcotest.(check bool) "clock stayed near the fill time" true (E.now e < 1_000)

(* Bug 6: unlocking inside a transaction did not release locks taken
   before BeginTrans (§3.4 requires they are not converted). Covered
   positively in test_kernel; here the negative: the transaction's own
   locks must still be retained by that same unlock. *)
let test_unlock_retains_txn_but_releases_pretxn () =
  let sim = L.make ~n_sites:2 () in
  let cl = sim.L.cluster in
  let probe_granted = ref None in
  ignore
    (Api.spawn_process cl ~site:0 (fun env ->
         let c = Api.creat env "/f" ~vid:1 in
         Api.write_string env c (String.make 32 'x');
         Api.commit_file env c;
         Api.begin_trans env;
         Api.seek env c ~pos:0;
         (match Api.lock env c ~len:16 ~mode:M.Exclusive () with
         | Api.Granted -> ()
         | Api.Conflict _ -> assert false);
         Api.seek env c ~pos:0;
         Api.unlock env c ~len:16;
         (* The transaction lock is retained: an INDEPENDENT process (not a
            forked member, which would share the transaction's locks) must
            still be blocked. *)
         let p =
           Api.spawn_process (Api.cluster env) ~site:1 (fun q ->
               let qc = Api.open_file q "/f" in
               Api.seek q qc ~pos:0;
               (match Api.lock q qc ~len:16 ~mode:M.Exclusive ~wait:false () with
               | Api.Granted -> probe_granted := Some true
               | Api.Conflict _ -> probe_granted := Some false);
               Api.close q qc)
         in
         Api.wait_pid env p;
         ignore (Api.end_trans env)));
  L.run sim;
  Alcotest.(check (option bool)) "txn lock retained after unlock" (Some false)
    !probe_granted

let suite =
  [
    ( "regressions",
      [
        Alcotest.test_case "concurrent open clobber" `Quick
          test_concurrent_open_no_clobber;
        Alcotest.test_case "interleaved commit apply" `Quick
          test_interleaved_commit_apply;
        Alcotest.test_case "fork channel refcount" `Quick
          test_fork_inherited_channel_refcount;
        Alcotest.test_case "prng sign" `Quick test_prng_never_negative;
        Alcotest.test_case "cancelled timer" `Quick
          test_cancelled_timer_does_not_stretch_clock;
        Alcotest.test_case "unlock retention split" `Quick
          test_unlock_retains_txn_but_releases_pretxn;
      ] );
  ]

(* Bug 7: the per-file commit gate handed ownership to a waiter whose
   fiber had been killed (deadlock-victim cascade); the dead fiber never
   released it and every later commit on that file wedged. Reproduce:
   single site, many unordered multi-record transactions, deadlock
   victims killed while queued on the gate. *)
let test_gate_survives_killed_waiters () =
  let sim = L.make ~seed:42 ~n_sites:1 () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"setup" (fun env ->
         let c = Api.creat env "/hot" ~vid:0 in
         Api.write_string env c (String.make 2048 'i');
         Api.close env c;
         let terminal t =
           Api.fork env ~name:(Printf.sprintf "t%d" t) (fun w ->
               let prng = Prng.create ~seed:(500 + t) in
               let c = Api.open_file w "/hot" in
               Api.begin_trans w;
               (* Unordered: deadlocks guaranteed across 16 workers. *)
               for _ = 1 to 4 do
                 let pos = 64 * Prng.int prng 32 in
                 Api.seek w c ~pos;
                 (match Api.lock w c ~len:64 ~mode:M.Exclusive () with
                 | Api.Granted -> ()
                 | Api.Conflict _ -> ());
                 Api.pwrite w c ~pos (Bytes.make 64 'u')
               done;
               ignore (Api.end_trans w);
               Api.close w c)
         in
         let pids = List.init 16 terminal in
         List.iter (Api.wait_pid env) pids));
  L.run sim;
  let st = L.Engine.stats sim.L.engine in
  let committed = L.Stats.get st "txn.committed" in
  let victims = L.Stats.get st "deadlock.victims" in
  Alcotest.(check bool) "deadlocks actually happened" true (victims > 0);
  Alcotest.(check int) "everyone else committed" 16 (committed + victims);
  (* The wedge symptom was mass lock timeouts. *)
  Alcotest.(check int) "no residual locks" 0
    (match K.lookup cl "/hot" with
    | Some fid -> (
      match K.lock_table (K.kernel cl 0) fid with
      | Some t -> Locus_lock.Lock_table.lock_count t
      | None -> 0)
    | None -> -1)

let suite =
  suite
  @ [
      ( "regressions.gate",
        [
          Alcotest.test_case "gate survives killed waiters" `Quick
            test_gate_survives_killed_waiters;
        ] );
    ]

(* A top-level process that fails inside its own transaction was counted
   as two aborts: the failure handler aborted the transaction, and the
   exit path aborted it again because the process still named it. *)
let test_failed_process_aborts_once () =
  let sim = L.make ~n_sites:2 () in
  let aborts = ref 0 in
  K.set_observer sim.L.cluster
    (Some
       (fun r ->
         match r.Locus_core.Obs.ev with
         | Locus_core.Obs.Abort _ -> incr aborts
         | _ -> ()));
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 (fun env ->
         let c = Api.creat env "/f" ~vid:1 in
         Api.begin_trans env;
         Api.write_string env c "doomed";
         Api.fail env "failure inside the transaction"));
  L.run sim;
  let stat = L.Stats.get (L.Engine.stats sim.L.engine) in
  Alcotest.(check int) "one abort request" 1 (stat "txn.abort_requests");
  Alcotest.(check int) "one user abort" 1 (stat "txn.abort.user");
  Alcotest.(check int) "one process failure" 1 (stat "proc.failures");
  Alcotest.(check int) "one Abort record" 1 !aborts

(* An abort whose fiber is killed part-way (in the simulation, a lock
   waiter running a deadlock scan that is aborted in turn) used to wake
   the aborts queued behind it as if it had finished, leaving the
   transaction registered, its process running and its locks held. *)
let test_waiter_finishes_interrupted_abort () =
  let sim = L.make ~n_sites:2 () in
  let cl = sim.L.cluster in
  let e = sim.L.engine in
  let p =
    Api.spawn_process cl ~site:1 (fun env ->
        let c = Api.creat env "/f" ~vid:1 in
        Api.begin_trans env;
        Api.write_string env c "held";
        E.sleep 10_000_000;
        ignore (Api.end_trans env))
  in
  let registered = ref true in
  ignore
    (E.spawn ~site:0 e (fun () ->
         E.sleep 1_000_000;
         let txid = List.hd (K.active_transactions cl) in
         let first =
           E.spawn ~site:0 e (fun () -> K.abort_transaction cl ~src:0 txid)
         in
         let waiter =
           E.spawn ~site:0 e (fun () ->
               K.abort_transaction cl ~src:0 txid;
               registered := K.transaction_top cl txid <> None)
         in
         ignore waiter;
         (* The first abort is now waiting on a remote reply. *)
         E.sleep 100;
         E.kill e first));
  L.run sim;
  Alcotest.(check bool) "transaction unregistered" false !registered;
  Alcotest.(check bool) "its process is gone" true
    (E.Ivar.peek (K.exit_ivar cl p) = Some ())

(* An abort sent while the top-level process migrates reaches the site it
   was hinted at, which no longer has it running. That site answers "not
   here", and only then does the requester probe for the process (§4.1). *)
let test_abort_reaches_migrating_top () =
  let sim = L.make ~n_sites:2 () in
  let cl = sim.L.cluster in
  let e = sim.L.engine in
  let aborts = ref 0 in
  K.set_observer cl
    (Some
       (fun r ->
         match r.Locus_core.Obs.ev with
         | Locus_core.Obs.Abort _ -> incr aborts
         | _ -> ()));
  let otr = L.Otrace.create e in
  K.set_otracer cl (Some otr);
  let body_done = ref false in
  let p =
    Api.spawn_process cl ~site:0 (fun env ->
        let c = Api.creat env "/f" ~vid:1 in
        Api.begin_trans env;
        Api.write_string env c "moving";
        Api.migrate env 1;
        E.sleep 10_000_000;
        body_done := true;
        ignore (Api.end_trans env))
  in
  ignore
    (E.spawn ~site:0 e (fun () ->
         let in_transit () =
           match Locus_proc.Proc_table.find (K.procs (K.kernel cl 0)) p with
           | Some proc ->
             proc.Locus_proc.Process.status = Locus_proc.Process.In_transit
           | None -> false
         in
         (* The transaction record travels with the process, so take
            the txid before the move starts. *)
         let txid = ref None in
         while not (in_transit ()) do
           (match K.active_transactions cl with
           | t :: _ -> txid := Some t
           | [] -> ());
           E.sleep 100
         done;
         K.abort_transaction cl ~src:0 (Option.get !txid)));
  L.run sim;
  let stat = L.Stats.get (E.stats e) in
  Alcotest.(check int) "one Abort record" 1 !aborts;
  Alcotest.(check int) "one abort request" 1 (stat "txn.abort_requests");
  Alcotest.(check bool) "the requester probed" true
    (L.Otrace.phase otr "find-process" <> None);
  Alcotest.(check bool) "killed before its body finished" false !body_done;
  Alcotest.(check bool) "its process is gone" true
    (E.Ivar.peek (K.exit_ivar cl p) = Some ())

let suite =
  suite
  @ [
      ( "regressions.abort",
        [
          Alcotest.test_case "failed process aborts once" `Quick
            test_failed_process_aborts_once;
          Alcotest.test_case "waiter finishes an interrupted abort" `Quick
            test_waiter_finishes_interrupted_abort;
          Alcotest.test_case "abort reaches a migrating top-level process"
            `Quick test_abort_reaches_migrating_top;
        ] );
    ]
