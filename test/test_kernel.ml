(* End-to-end semantics through the full kernel stack: transactions,
   record locking across processes and sites, the §3.3/§3.4 interaction
   rules, append mode, migration, cascade abort, deadlock resolution,
   replication. *)

module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module M = L.Mode

let outcome = Alcotest.testable K.pp_outcome (fun a b -> a = b)

(* Run scenario [f] as a process at [site] on a fresh [n_sites] cluster;
   return the sim after quiescence. *)
let scenario ?config ?(n_sites = 3) ?(site = 0) f =
  L.simulate ?config ~n_sites (fun cl -> ignore (Api.spawn_process cl ~site (f cl)))

let oracle sim path =
  K.read_committed_oracle sim.L.cluster
    (Option.get (K.lookup sim.L.cluster path))

let must_lock env c ~len ~mode =
  match Api.lock env c ~len ~mode () with
  | Api.Granted -> ()
  | Api.Conflict _ -> Alcotest.fail "unexpected lock conflict"

(* {1 Basic transaction semantics} *)

let test_multi_file_multi_site_commit () =
  let sim =
    scenario (fun _cl env ->
        let a = Api.creat env "/a" ~vid:1 in
        let b = Api.creat env "/b" ~vid:2 in
        Api.begin_trans env;
        Api.write_string env a "alpha";
        Api.write_string env b "beta!";
        Alcotest.check outcome "committed" K.Committed (Api.end_trans env))
  in
  Alcotest.(check string) "file a" "alpha" (oracle sim "/a");
  Alcotest.(check string) "file b" "beta!" (oracle sim "/b")

let test_abort_undoes_everything () =
  let sim =
    scenario (fun _cl env ->
        let a = Api.creat env "/a" ~vid:1 in
        let b = Api.creat env "/b" ~vid:2 in
        Api.write_string env a "keep.";
        Api.commit_file env a;
        Api.begin_trans env;
        Api.pwrite env a ~pos:0 (Bytes.of_string "WRECK");
        Api.write_string env b "WRECK";
        Api.abort_trans env;
        ())
  in
  Alcotest.(check string) "a intact" "keep." (oracle sim "/a");
  Alcotest.(check string) "b never grew" "" (oracle sim "/b")

let test_nesting () =
  let sim =
    scenario (fun cl env ->
        let a = Api.creat env "/a" ~vid:1 in
        Api.begin_trans env;
        Api.write_string env a "11111";
        (* Inner pair, e.g. a database subsystem's critical section (§2). *)
        Api.begin_trans env;
        Api.pwrite env a ~pos:5 (Bytes.of_string "22222");
        Alcotest.check outcome "inner end is pairing only" K.Committed
          (Api.end_trans env);
        (* Still uncommitted: the transaction ends at nesting 0 only. *)
        Alcotest.(check string) "nothing durable yet" ""
          (K.read_committed_oracle cl (Option.get (K.lookup cl "/a")));
        Alcotest.(check bool) "still inside" true (Api.in_transaction env);
        Alcotest.check outcome "outer commits" K.Committed (Api.end_trans env);
        Alcotest.(check bool) "outside now" false (Api.in_transaction env))
  in
  Alcotest.(check string) "both writes atomic" "1111122222" (oracle sim "/a");
  Alcotest.(check int) "exactly one transaction" 1
    (L.Stats.get (L.Engine.stats sim.L.engine) "txn.committed")

let test_end_trans_outside_raises () =
  let raised = ref false in
  ignore
    (scenario (fun _cl env ->
         (try ignore (Api.end_trans env)
          with Api.Error _ -> raised := true)));
  Alcotest.(check bool) "raises" true !raised

(* {1 Locking semantics across processes} *)

let test_exclusive_blocks_until_commit () =
  (* 2PL in action: a reader blocks on a writer's retained lock until the
     transaction commits, then sees the committed value. *)
  let seen = ref "" and t_read = ref 0 and t_commit = ref 0 in
  ignore
    (scenario (fun _cl env ->
         let c = Api.creat env "/r" ~vid:1 in
         Api.write_string env c "old!";
         Api.commit_file env c;
         let writer =
           Api.fork env ~name:"writer" (fun w ->
               Api.begin_trans w;
               Api.seek w c ~pos:0;
               must_lock w c ~len:4 ~mode:M.Exclusive;
               Api.pwrite w c ~pos:0 (Bytes.of_string "new!");
               (* Explicit unlock retains (§3.3 rule 1). *)
               Api.seek w c ~pos:0;
               Api.unlock w c ~len:4;
               Engine.sleep 200_000;
               ignore (Api.end_trans w);
               t_commit := Engine.now (K.engine (Api.cluster w)))
         in
         Engine.sleep 50_000;
         (* Reader: non-transaction read must wait out the retained lock. *)
         seen := Bytes.to_string (Api.pread env c ~pos:0 ~len:4);
         t_read := Engine.now (K.engine (Api.cluster env));
         Api.wait_pid env writer));
  Alcotest.(check string) "read committed value" "new!" !seen;
  Alcotest.(check bool) "read happened after commit" true (!t_read >= !t_commit)

let test_conflict_nowait () =
  ignore
    (scenario (fun _cl env ->
         let c = Api.creat env "/r" ~vid:1 in
         Api.write_string env c "x";
         Api.commit_file env c;
         let locked = Engine.Ivar.create () in
         let e = K.engine (Api.cluster env) in
         let holder =
           Api.fork env ~name:"holder" (fun h ->
               Api.begin_trans h;
               Api.seek h c ~pos:0;
               must_lock h c ~len:1 ~mode:M.Exclusive;
               Engine.fill e locked ();
               Engine.sleep 100_000;
               ignore (Api.end_trans h))
         in
         Engine.await locked;
         Api.seek env c ~pos:0;
         (match Api.lock env c ~len:1 ~mode:M.Shared ~wait:false () with
         | Api.Conflict [ Owner.Transaction _ ] -> ()
         | Api.Conflict _ -> Alcotest.fail "expected one transaction blocker"
         | Api.Granted -> Alcotest.fail "expected conflict");
         Api.wait_pid env holder))

let test_shared_readers_concurrent () =
  let sim =
    scenario (fun _cl env ->
        let c = Api.creat env "/r" ~vid:1 in
        Api.write_string env c "data";
        Api.commit_file env c;
        let reader i =
          Api.fork env ~name:(Printf.sprintf "r%d" i) (fun r ->
              Api.begin_trans r;
              Api.seek r c ~pos:0;
              must_lock r c ~len:4 ~mode:M.Shared;
              ignore (Api.pread r c ~pos:0 ~len:4);
              Engine.sleep 50_000;
              ignore (Api.end_trans r))
        in
        let rs = List.init 4 reader in
        List.iter (Api.wait_pid env) rs)
  in
  (* All four readers held the shared lock simultaneously: no waits. *)
  Alcotest.(check int) "no lock waits" 0
    (L.Stats.get (L.Engine.stats sim.L.engine) "lock.waits")

let test_implicit_locking () =
  let sim =
    scenario (fun _cl env ->
        let c = Api.creat env "/r" ~vid:1 in
        Api.begin_trans env;
        (* No explicit lock: the kernel acquires one at access time (§3.1). *)
        Api.write_string env c "implicit";
        ignore (Api.end_trans env))
  in
  Alcotest.(check bool) "implicit lock taken" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "lock.implicit" > 0)

let test_pre_transaction_locks_not_converted () =
  (* §3.4 second mechanism: locks acquired before BeginTrans are not
     transaction locks — unlocking them inside the transaction really
     releases them. *)
  ignore
    (scenario (fun _cl env ->
         let c = Api.creat env "/r" ~vid:1 in
         Api.write_string env c "x";
         Api.commit_file env c;
         Api.seek env c ~pos:0;
         must_lock env c ~len:1 ~mode:M.Exclusive;
         Api.begin_trans env;
         Api.seek env c ~pos:0;
         Api.unlock env c ~len:1;
         (* An independent process (a fork would join the transaction and
            share its locks) can grab it immediately, mid-transaction. *)
         let probe = ref false in
         let p =
           Api.spawn_process (Api.cluster env) ~site:1 ~name:"probe" (fun q ->
               let qc = Api.open_file q "/r" in
               Api.seek q qc ~pos:0;
               (match Api.lock q qc ~len:1 ~mode:M.Exclusive ~wait:false () with
               | Api.Granted -> probe := true
               | Api.Conflict _ -> ());
               Api.close q qc)
         in
         Api.wait_pid env p;
         ignore (Api.end_trans env);
         Alcotest.(check bool) "released mid-transaction" true !probe))

let test_non_transaction_lock_mode () =
  (* §3.4 first mechanism: a non-transaction-mode lock taken inside a
     transaction is not subject to 2PL. *)
  ignore
    (scenario (fun _cl env ->
         let c = Api.creat env "/catalog" ~vid:1 in
         Api.write_string env c "x";
         Api.commit_file env c;
         Api.begin_trans env;
         Api.seek env c ~pos:0;
         (match Api.lock env c ~len:1 ~mode:M.Exclusive ~non_transaction:true () with
         | Api.Granted -> ()
         | Api.Conflict _ -> Alcotest.fail "grant");
         Api.seek env c ~pos:0;
         Api.unlock env c ~len:1;
         let probe = ref false in
         let p =
           Api.spawn_process (Api.cluster env) ~site:1 ~name:"probe" (fun q ->
               let qc = Api.open_file q "/catalog" in
               Api.seek q qc ~pos:0;
               (match Api.lock q qc ~len:1 ~mode:M.Exclusive ~wait:false () with
               | Api.Granted -> probe := true
               | Api.Conflict _ -> ());
               Api.close q qc)
         in
         Api.wait_pid env p;
         ignore (Api.end_trans env);
         Alcotest.(check bool) "catalog lock released early" true !probe))

(* Figure 2 / §3.3 rule 2, in its sharpest form: the transaction only
   READS the dirty record, yet the record commits with it. [before] runs
   once the clean record is committed. *)
let rule2_dirty_read ?config ?(before = fun _ _ -> ()) () =
  scenario ?config (fun cl env ->
      let c = Api.creat env "/x" ~vid:1 in
      Api.write_string env c "....";
      Api.commit_file env c;
      before cl (Option.get (K.lookup cl "/x"));
      (* Non-transaction dirty write, unlocked. *)
      Api.pwrite env c ~pos:0 (Bytes.of_string "DIRT");
      let t =
        Api.fork env ~name:"txn" (fun w ->
            Api.begin_trans w;
            Api.seek w c ~pos:0;
            must_lock w c ~len:4 ~mode:M.Shared;
            ignore (Api.pread w c ~pos:0 ~len:4);
            Alcotest.check outcome "reader txn commits" K.Committed
              (Api.end_trans w))
      in
      Api.wait_pid env t;
      (* Committed by the transaction (once its asynchronous phase 2 has
         landed), not by this process's exit. *)
      Engine.sleep 1_000_000;
      Alcotest.(check string) "dirty record durable at txn end" "DIRT"
        (K.read_committed_oracle cl (Option.get (K.lookup cl "/x"))))

let test_rule2_dirty_read_commits_with_txn () =
  let sim = rule2_dirty_read () in
  Alcotest.(check string) "dirty record committed by the reader txn" "DIRT"
    (oracle sim "/x")

(* The same read with the lock-manager role moved off the file's storage
   site (site 1): the storage site sees the dirty bytes, and the role's
   owner must retain the lock for it (the [dirty] flag of
   [Msg.Ensure_lock]). *)
let test_rule2_dirty_read_sharded () =
  let config =
    K.Config.with_shards ~shards:1 ~policy:Locus_shard.Policy.Never
      (K.Config.default ~n_sites:3)
  in
  let sim =
    rule2_dirty_read ~config
      ~before:(fun cl fid -> K.force_migrate cl ~src:0 fid ~dst:2)
      ()
  in
  let cl = sim.L.cluster in
  (match K.shard_owner cl (Option.get (K.lookup cl "/x")) with
  | Some (owner, _) -> Alcotest.(check int) "role away from storage" 2 owner
  | None -> Alcotest.fail "sharding is on");
  Alcotest.(check bool) "grants made for other sites" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "shard.remote_grants" > 0);
  Alcotest.(check string) "dirty record committed by the reader txn" "DIRT"
    (oracle sim "/x")

let test_append_mode_disjoint_offsets () =
  let offsets = ref [] in
  let sim =
    scenario (fun _cl env ->
        let c = Api.creat env "/log" ~vid:1 in
        Api.close env c;
        let appender i =
          Api.fork env ~name:(Printf.sprintf "app%d" i) (fun a ->
              let lc = Api.open_file a "/log" in
              Api.set_append a lc true;
              Api.begin_trans a;
              (match Api.lock a lc ~len:10 ~mode:M.Exclusive () with
              | Api.Granted -> offsets := Api.pos a lc :: !offsets
              | Api.Conflict _ -> Alcotest.fail "append lock");
              Api.write_string a lc (Printf.sprintf "entry-%04d" i);
              ignore (Api.end_trans a);
              Api.close a lc)
        in
        let pids = List.init 5 appender in
        List.iter (Api.wait_pid env) pids)
  in
  let sorted = List.sort Int.compare !offsets in
  Alcotest.(check (list int)) "five disjoint slots" [ 0; 10; 20; 30; 40 ] sorted;
  Alcotest.(check int) "log size" 50 (String.length (oracle sim "/log"))

(* {1 Processes} *)

let test_remote_members_file_lists_merge () =
  (* Members at three different sites each update a different file; the
     top-level process commits all of them in one 2PC. *)
  let sim =
    scenario ~n_sites:3 (fun _cl env ->
        let a = Api.creat env "/a" ~vid:0 in
        let b = Api.creat env "/b" ~vid:1 in
        let c = Api.creat env "/c" ~vid:2 in
        Api.begin_trans env;
        let work site chan text =
          Api.fork env ~site ~name:"member" (fun m -> Api.write_string m chan text)
        in
        let p1 = work 1 a "from1" in
        let p2 = work 2 b "from2" in
        Api.write_string env c "local";
        Api.wait_pid env p1;
        Api.wait_pid env p2;
        Alcotest.check outcome "committed" K.Committed (Api.end_trans env))
  in
  Alcotest.(check string) "a" "from1" (oracle sim "/a");
  Alcotest.(check string) "b" "from2" (oracle sim "/b");
  Alcotest.(check string) "c" "local" (oracle sim "/c");
  (* Three participant sites prepared. *)
  Alcotest.(check int) "prepares" 3
    (L.Stats.get (L.Engine.stats sim.L.engine) "2pc.prepares")

let test_member_failure_aborts_transaction () =
  let sim =
    scenario (fun _cl env ->
        let a = Api.creat env "/a" ~vid:1 in
        let outcome_ref = ref None in
        let runner =
          Api.fork env ~name:"runner" (fun r ->
              Api.begin_trans r;
              Api.write_string r a "doomed";
              let bad =
                Api.fork r ~site:1 ~name:"bad" (fun b -> Api.fail b "injected")
              in
              Api.wait_pid r bad;
              outcome_ref := Some (Api.end_trans r))
        in
        Api.wait_pid env runner)
  in
  Alcotest.(check string) "nothing committed" "" (oracle sim "/a");
  Alcotest.(check int) "no commits" 0
    (L.Stats.get (L.Engine.stats sim.L.engine) "txn.committed")

let test_migration_race_merge_retry () =
  (* The §4.1 race: a child's file-list merge arrives while the top-level
     process is in transit; the message is bounced and retried. *)
  let sim =
    scenario ~n_sites:3 (fun _cl env ->
        let a = Api.creat env "/a" ~vid:1 in
        Api.begin_trans env;
        Api.write_string env a "top..";
        let member =
          Api.fork env ~site:2 ~name:"member" (fun m ->
              Api.pwrite m a ~pos:5 (Bytes.of_string "child"))
        in
        (* Migrate repeatedly while the member completes. *)
        Api.migrate env 1;
        Api.migrate env 2;
        Api.migrate env 0;
        Api.wait_pid env member;
        Alcotest.check outcome "commits despite the chase" K.Committed
          (Api.end_trans env))
  in
  Alcotest.(check string) "both writes" "top..child" (oracle sim "/a");
  Alcotest.(check int) "migrations" 3
    (L.Stats.get (L.Engine.stats sim.L.engine) "proc.migrations")

let test_deadlock_detected_and_resolved () =
  let outcomes = ref [] in
  let sim =
    scenario ~n_sites:2 (fun _cl env ->
        let a = Api.creat env "/a" ~vid:1 in
        let b = Api.creat env "/b" ~vid:1 in
        Api.write_string env a "A";
        Api.write_string env b "B";
        Api.commit_file env a;
        Api.commit_file env b;
        let cross first second name =
          Api.fork env ~name (fun w ->
              Api.begin_trans w;
              Api.seek w first ~pos:0;
              must_lock w first ~len:1 ~mode:M.Exclusive;
              Engine.sleep 50_000;
              Api.seek w second ~pos:0;
              must_lock w second ~len:1 ~mode:M.Exclusive;
              outcomes := Api.end_trans w :: !outcomes)
        in
        let p1 = cross a b "t1" in
        let p2 = cross b a "t2" in
        Api.wait_pid env p1;
        Api.wait_pid env p2)
  in
  let stats = L.Engine.stats sim.L.engine in
  Alcotest.(check bool) "scan ran" true (L.Stats.get stats "deadlock.scans" > 0);
  Alcotest.(check int) "one victim" 1 (L.Stats.get stats "deadlock.victims");
  (* The survivor commits; the victim's fiber was killed so only one
     outcome is recorded. *)
  Alcotest.(check (list outcome)) "survivor committed" [ K.Committed ] !outcomes

let test_replica_propagation () =
  let config =
    { (K.Config.default ~n_sites:3) with
      K.Config.volumes = [ (0, [ 0 ]); (1, [ 1; 2 ]) ] }
  in
  let sim =
    scenario ~config ~n_sites:3 (fun _cl env ->
        let c = Api.creat env "/repl" ~vid:1 in
        Api.begin_trans env;
        Api.write_string env c "mirrored";
        ignore (Api.end_trans env))
  in
  let cl = sim.L.cluster in
  let fid = Option.get (K.lookup cl "/repl") in
  Alcotest.(check int) "primary is site 1" 1 (K.storage_site cl fid);
  (* The backup replica at site 2 received the committed pages. *)
  let k2 = K.kernel cl 2 in
  let vol2 = Option.get (Locus_fs.Filestore.volume (K.filestore k2) ~vid:1) in
  let inode = Locus_disk.Volume.read_inode_nosim vol2 fid.File_id.ino in
  Alcotest.(check int) "replica size" 8 inode.Locus_disk.Volume.size;
  (* Versions track the primary: create = v1, the commit = v2. *)
  Alcotest.(check int) "replica version" 2 inode.Locus_disk.Volume.version;
  Alcotest.(check bool) "replica apply happened" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "replica.apply" > 0)

let test_close_commits_non_transaction_writes () =
  let sim =
    scenario (fun _cl env ->
        let c = Api.creat env "/plain" ~vid:1 in
        Api.write_string env c "unix!";
        Api.close env c)
  in
  Alcotest.(check string) "durable after close" "unix!" (oracle sim "/plain")

let test_lock_cache_ablation () =
  (* With the requesting-site lock cache disabled, covered accesses pay a
     revalidation message (§5.1 / E2 ablation). *)
  let run lock_cache =
    let config = { (K.Config.default ~n_sites:2) with K.Config.lock_cache } in
    let sim =
      scenario ~config ~n_sites:2 (fun _cl env ->
          let c = Api.creat env "/r" ~vid:1 in
          Api.write_string env c "xxxx";
          Api.commit_file env c;
          Api.begin_trans env;
          Api.seek env c ~pos:0;
          must_lock env c ~len:4 ~mode:M.Exclusive;
          for _ = 1 to 5 do
            ignore (Api.pread env c ~pos:0 ~len:4)
          done;
          ignore (Api.end_trans env))
    in
    L.Stats.get (L.Engine.stats sim.L.engine) "lock.revalidations"
  in
  Alcotest.(check int) "cache on: no revalidation" 0 (run true);
  Alcotest.(check int) "cache off: one per access" 5 (run false)

let suite =
  [
    ( "kernel.transactions",
      [
        Alcotest.test_case "multi-file multi-site commit" `Quick
          test_multi_file_multi_site_commit;
        Alcotest.test_case "abort undoes" `Quick test_abort_undoes_everything;
        Alcotest.test_case "nesting" `Quick test_nesting;
        Alcotest.test_case "end outside" `Quick test_end_trans_outside_raises;
      ] );
    ( "kernel.locking",
      [
        Alcotest.test_case "2PL blocks until commit" `Quick
          test_exclusive_blocks_until_commit;
        Alcotest.test_case "conflict nowait" `Quick test_conflict_nowait;
        Alcotest.test_case "shared readers" `Quick test_shared_readers_concurrent;
        Alcotest.test_case "implicit locking" `Quick test_implicit_locking;
        Alcotest.test_case "pre-txn locks (§3.4)" `Quick
          test_pre_transaction_locks_not_converted;
        Alcotest.test_case "non-transaction locks (§3.4)" `Quick
          test_non_transaction_lock_mode;
        Alcotest.test_case "rule 2 dirty read" `Quick
          test_rule2_dirty_read_commits_with_txn;
        Alcotest.test_case "rule 2 dirty read, role away" `Quick
          test_rule2_dirty_read_sharded;
        Alcotest.test_case "append mode" `Quick test_append_mode_disjoint_offsets;
        Alcotest.test_case "lock cache ablation" `Quick test_lock_cache_ablation;
      ] );
    ( "kernel.processes",
      [
        Alcotest.test_case "remote members merge" `Quick
          test_remote_members_file_lists_merge;
        Alcotest.test_case "member failure aborts" `Quick
          test_member_failure_aborts_transaction;
        Alcotest.test_case "migration race" `Quick test_migration_race_merge_retry;
        Alcotest.test_case "deadlock resolution" `Quick
          test_deadlock_detected_and_resolved;
        Alcotest.test_case "replica propagation" `Quick test_replica_propagation;
        Alcotest.test_case "close commits" `Quick
          test_close_commits_non_transaction_writes;
      ] );
  ]

let test_prefetch_serves_reads_locally () =
  let run prefetch =
    let config = { (K.Config.default ~n_sites:2) with K.Config.prefetch } in
    let sim =
      scenario ~config ~n_sites:2 (fun _cl env ->
          let c = Api.creat env "/r" ~vid:1 in
          Api.write_string env c (String.make 128 'd');
          Api.commit_file env c;
          Api.begin_trans env;
          Api.seek env c ~pos:0;
          must_lock env c ~len:128 ~mode:M.Exclusive;
          (* Reads inside the locked (prefetched) range. *)
          for g = 0 to 7 do
            let b = Api.pread env c ~pos:(g * 16) ~len:16 in
            assert (Bytes.to_string b = String.make 16 'd')
          done;
          (* Write-through: our own write must be visible in later cached
             reads. *)
          Api.pwrite env c ~pos:32 (Bytes.of_string "WWWW");
          Alcotest.(check string)
            (if prefetch then "cached read sees own write" else "remote read")
            "WWWW"
            (Bytes.to_string (Api.pread env c ~pos:32 ~len:4));
          ignore (Api.end_trans env))
    in
    ( L.Stats.get (L.Engine.stats sim.L.engine) "prefetch.hits",
      L.Stats.get (L.Engine.stats sim.L.engine) "net.msg" )
  in
  let hits_on, msgs_on = run true in
  let hits_off, msgs_off = run false in
  Alcotest.(check bool) "hits with prefetch" true (hits_on >= 8);
  Alcotest.(check int) "no hits without" 0 hits_off;
  Alcotest.(check bool) "fewer messages with prefetch" true (msgs_on < msgs_off)

let test_prefetch_invalidated_on_unlock () =
  let config = { (K.Config.default ~n_sites:2) with K.Config.prefetch = true } in
  ignore
    (scenario ~config ~n_sites:2 (fun _cl env ->
         let c = Api.creat env "/r" ~vid:1 in
         Api.write_string env c (String.make 64 'd');
         Api.commit_file env c;
         Api.seek env c ~pos:0;
         must_lock env c ~len:64 ~mode:M.Exclusive;
         ignore (Api.pread env c ~pos:0 ~len:16);
         Api.seek env c ~pos:0;
         Api.unlock env c ~len:64;
         (* Another process changes the data... *)
         let w =
           Api.spawn_process (Api.cluster env) ~site:1 (fun q ->
               let qc = Api.open_file q "/r" in
               Api.pwrite q qc ~pos:0 (Bytes.of_string "FRESH");
               Api.commit_file q qc;
               Api.close q qc)
         in
         Api.wait_pid env w;
         (* ...and without the lock our stale prefetched copy must not be
            used. *)
         Alcotest.(check string) "fresh data after unlock" "FRESH"
           (Bytes.to_string (Api.pread env c ~pos:0 ~len:5));
         Api.close env c))

let prefetch_tests =
  ( "kernel.prefetch",
    [
      Alcotest.test_case "serves reads locally" `Quick
        test_prefetch_serves_reads_locally;
      Alcotest.test_case "invalidated on unlock" `Quick
        test_prefetch_invalidated_on_unlock;
    ] )

let suite = suite @ [ prefetch_tests ]

(* §5.2 lock-control migration, by locus_shard's streak placement. *)

let delegation_config n_sites =
  K.Config.with_shards ~shards:1 ~policy:(Locus_shard.Policy.Threshold 3)
    (K.Config.default ~n_sites)

let test_delegation_grants_locally () =
  let config = delegation_config 2 in
  let sim =
    scenario ~config ~n_sites:2 (fun _cl env ->
        let c = Api.creat env "/f" ~vid:1 in
        Api.write_string env c (String.make 512 'x');
        Api.commit_file env c;
        (* A burst of explicit lock/unlock from this remote site. *)
        let e = K.engine (Api.cluster env) in
        let costs = ref [] in
        for g = 0 to 9 do
          Api.seek env c ~pos:(g * 16);
          let t0 = Engine.now e in
          (match Api.lock env c ~len:16 ~mode:M.Exclusive () with
          | Api.Granted -> ()
          | Api.Conflict _ -> Alcotest.fail "grant");
          costs := (Engine.now e - t0) :: !costs;
          Api.seek env c ~pos:(g * 16);
          Api.unlock env c ~len:16
        done;
        let costs = List.rev !costs in
        let early = List.nth costs 0 and late = List.nth costs 9 in
        (* After authority moves here, locking is a local operation. *)
        Alcotest.(check bool) "late locks much cheaper" true (late * 3 < early))
  in
  Alcotest.(check bool) "delegated" true
    (L.Stats.get (L.Engine.stats sim.L.engine) "shard.migrations" > 0)

let test_delegation_still_enforces () =
  let config = delegation_config 3 in
  ignore
    (scenario ~config ~n_sites:3 (fun _cl env ->
         let c = Api.creat env "/f" ~vid:1 in
         Api.write_string env c (String.make 64 'x');
         Api.commit_file env c;
         (* Force delegation to this site (site 0). *)
         Api.begin_trans env;
         for _ = 1 to 4 do
           Api.seek env c ~pos:0;
           (match Api.lock env c ~len:16 ~mode:M.Exclusive () with
           | Api.Granted -> ()
           | Api.Conflict _ -> Alcotest.fail "grant")
         done;
         (* A third-site process must still see the conflict, following
            the redirect to the delegate. *)
         let saw = ref None in
         let p =
           Api.spawn_process (Api.cluster env) ~site:2 (fun q ->
               let qc = Api.open_file q "/f" in
               Api.seek q qc ~pos:0;
               (match Api.lock q qc ~len:16 ~mode:M.Shared ~wait:false () with
               | Api.Granted -> saw := Some `Granted
               | Api.Conflict _ -> saw := Some `Conflict);
               Api.close q qc)
         in
         Api.wait_pid env p;
         Alcotest.(check bool) "conflict visible at delegate" true
           (!saw = Some `Conflict);
         ignore (Api.end_trans env)))

let test_delegation_recalled_for_commit () =
  let config = delegation_config 2 in
  let sim =
    scenario ~config ~n_sites:2 (fun _cl env ->
        let c = Api.creat env "/f" ~vid:1 in
        Api.write_string env c (String.make 64 'x');
        Api.commit_file env c;
        Api.begin_trans env;
        for g = 0 to 3 do
          Api.seek env c ~pos:(g * 16);
          match Api.lock env c ~len:16 ~mode:M.Exclusive () with
          | Api.Granted -> ()
          | Api.Conflict _ -> Alcotest.fail "grant"
        done;
        Api.pwrite env c ~pos:0 (Bytes.of_string "DELEGATED-WRITE!");
        match Api.end_trans env with
        | K.Committed -> ()
        | K.Aborted -> Alcotest.fail "commit failed")
  in
  Alcotest.(check string) "committed through recall" "DELEGATED-WRITE!"
    (String.sub (oracle sim "/f") 0 16);
  let st = L.Engine.stats sim.L.engine in
  Alcotest.(check bool) "was delegated" true (L.Stats.get st "shard.migrations" > 0);
  (* After commit, the lock is gone: an independent process gets it. *)
  let cl = sim.L.cluster in
  let ok = ref false in
  ignore
    (Api.spawn_process cl ~site:1 (fun q ->
         let qc = Api.open_file q "/f" in
         Api.seek q qc ~pos:0;
         (match Api.lock q qc ~len:16 ~mode:M.Exclusive ~wait:false () with
         | Api.Granted -> ok := true
         | Api.Conflict _ -> ());
         Api.close q qc));
  L.run sim;
  Alcotest.(check bool) "locks released after recall+commit" true !ok

let test_delegation_survives_delegate_crash () =
  let config = delegation_config 2 in
  let sim = L.make ~config ~n_sites:2 () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"user" (fun env ->
         let c = Api.creat env "/f" ~vid:1 in
         Api.write_string env c (String.make 64 'x');
         Api.commit_file env c;
         for g = 0 to 3 do
           Api.seek env c ~pos:(g * 8);
           (match Api.lock env c ~len:8 ~mode:M.Exclusive () with
           | Api.Granted -> ()
           | Api.Conflict _ -> ())
         done;
         (* Authority now lives at site 0; park. *)
         Engine.sleep 5_000_000));
  ignore
    (Api.spawn_process cl ~site:1 ~name:"chaos" (fun _ ->
         Engine.sleep 1_000_000;
         K.crash_site cl 0;
         Engine.sleep 1_000_000;
         K.restart_site cl 0));
  L.run sim;
  (* After the delegate died, a fresh process can lock at the home site. *)
  let ok = ref false in
  ignore
    (Api.spawn_process cl ~site:1 (fun q ->
         let qc = Api.open_file q "/f" in
         Api.seek q qc ~pos:0;
         (match Api.lock q qc ~len:8 ~mode:M.Exclusive () with
         | Api.Granted -> ok := true
         | Api.Conflict _ -> ());
         Api.close q qc));
  L.run sim;
  Alcotest.(check bool) "home recovers authority after delegate crash" true !ok

let delegation_tests =
  ( "kernel.delegation",
    [
      Alcotest.test_case "grants locally after transfer" `Quick
        test_delegation_grants_locally;
      Alcotest.test_case "still enforces" `Quick test_delegation_still_enforces;
      Alcotest.test_case "recalled for commit" `Quick
        test_delegation_recalled_for_commit;
      Alcotest.test_case "delegate crash" `Quick
        test_delegation_survives_delegate_crash;
    ] )

let suite = suite @ [ delegation_tests ]
