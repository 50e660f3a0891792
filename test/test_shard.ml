(* locus_shard: dynamic lock/primary placement. The directory's epoch
   CAS, the threshold migration policy, stale-hint forwarding, ownership
   hand-off under a live transaction, crashed-owner re-homing — and the
   epoch-fence oracle, proven live by the --break shard inversion. *)

module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module Dir = Locus_shard.Directory
module Policy = Locus_shard.Policy
module Mode = Locus_lock.Mode
module Ck = Locus_check.Checker
module Ex = Locus_check.Explore

let fid ~vid ~ino = File_id.make ~vid ~ino

(* {1 The directory} *)

let test_directory_cas () =
  let d = Dir.create ~n_shards:8 ~n_sites:4 in
  Alcotest.(check int) "shard count" 8 (Dir.n_shards d);
  let f = fid ~vid:1 ~ino:7 in
  (* Deterministic hash, in range, and stable across calls. *)
  let s = Dir.shard_of d f in
  Alcotest.(check bool) "shard in range" true (s >= 0 && s < 8);
  Alcotest.(check int) "shard_of is a function" s (Dir.shard_of d f);
  let ds = Dir.site_of d f in
  Alcotest.(check bool) "directory site in range" true (ds >= 0 && ds < 4);
  (* Unclaimed entries answer with the caller's default at epoch 0. *)
  Alcotest.(check (triple int int int)) "unclaimed -> default, epoch 0"
    (2, 0, 2)
    (Dir.lookup d f ~default:2);
  Alcotest.(check (list (triple (pair int int) int int))) "no entries yet" []
    (List.map (fun (f, o, e) -> ((f.File_id.vid, f.File_id.ino), o, e))
       (Dir.entries d));
  (* Epoch CAS: the first claim from epoch 0 wins and advances to 1. *)
  (match Dir.claim d f ~default:2 ~new_owner:3 ~from_epoch:0 ~claimer:2 with
  | Ok e -> Alcotest.(check int) "first claim advances to 1" 1 e
  | Error _ -> Alcotest.fail "first claim must win");
  (* A racing claim still quoting epoch 0 is fenced, and learns the
     truth instead of clobbering it. *)
  (match Dir.claim d f ~default:2 ~new_owner:1 ~from_epoch:0 ~claimer:0 with
  | Ok _ -> Alcotest.fail "stale claim must lose"
  | Error (o, e) ->
      Alcotest.(check (pair int int)) "loser told the current owner" (3, 1)
        (o, e));
  (* Quoting the current epoch wins again. *)
  (match Dir.claim d f ~default:2 ~new_owner:1 ~from_epoch:1 ~claimer:3 with
  | Ok e -> Alcotest.(check int) "fresh claim advances to 2" 2 e
  | Error _ -> Alcotest.fail "fresh claim must win");
  Alcotest.(check (triple int int int))
    "lookup follows (and names the hand-off source)" (1, 2, 3)
    (Dir.lookup d f ~default:2)

let test_policy () =
  Alcotest.(check bool) "default is threshold 3" true
    (Policy.default = Policy.Threshold 3);
  Alcotest.(check bool) "never never migrates" false
    (Policy.decide Policy.Never ~streak:1000);
  Alcotest.(check bool) "below threshold holds" false
    (Policy.decide (Policy.Threshold 3) ~streak:2);
  Alcotest.(check bool) "at threshold migrates" true
    (Policy.decide (Policy.Threshold 3) ~streak:3);
  let parses s = Result.is_ok (Policy.of_string s) in
  Alcotest.(check bool) "parses never" true (parses "never");
  Alcotest.(check bool) "parses threshold:5" true
    (Policy.of_string "threshold:5" = Ok (Policy.Threshold 5));
  Alcotest.(check bool) "parses bare int" true
    (Policy.of_string "4" = Ok (Policy.Threshold 4));
  Alcotest.(check bool) "rejects garbage" false (parses "sometimes");
  Alcotest.(check bool) "rejects zero" false (parses "threshold:0")

(* {1 End-to-end scenarios} *)

let shard_config ?(sites = 4) ?(policy = Policy.Never) () =
  K.Config.with_shards ~shards:8 ~policy (K.Config.default ~n_sites:sites)

let stat sim name = L.Stats.get (L.Engine.stats sim.L.engine) name

let path = "/shard/hot"

(* Lock-manager role follows a remote-acquisition streak past the
   threshold, after which the hot site's acquisitions are local. *)
let test_threshold_migration () =
  let sim =
    L.make ~n_sites:4 ~config:(shard_config ~policy:(Policy.Threshold 3) ()) ()
  in
  let cl = sim.L.cluster in
  let fid = ref None in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"creator" (fun env ->
         let c = Api.creat env path ~vid:1 in
         Api.write_string env c (String.make 64 'x');
         Api.close env c;
         fid := K.lookup cl path;
         let f = Option.get !fid in
         let home = K.shard_default_owner cl f in
         let hot = (home + 1) mod 4 in
         ignore
           (Api.fork env ~site:hot ~name:"hot" (fun env ->
                let c = Api.open_file env path in
                for _ = 1 to 6 do
                  Api.seek env c ~pos:0;
                  ignore (Api.lock env c ~len:16 ~mode:Mode.Exclusive ());
                  Api.seek env c ~pos:0;
                  Api.unlock env c ~len:16;
                  Engine.sleep 10_000
                done;
                Api.close env c))));
  L.run sim;
  let f = Option.get !fid in
  let home = K.shard_default_owner cl f in
  let hot = (home + 1) mod 4 in
  (match K.shard_owner cl f with
  | Some (owner, epoch) ->
      Alcotest.(check int) "role migrated to the hot site" hot owner;
      Alcotest.(check bool) "epoch advanced" true (epoch >= 1)
  | None -> Alcotest.fail "sharding is on");
  Alcotest.(check bool) "a migration happened" true
    (stat sim "shard.migrations" >= 1 && stat sim "shard.installs" >= 1);
  Alcotest.(check bool) "later grants were local to the hot site" true
    (stat sim "shard.local_grants" > 0)

(* A client whose hint still points at the superseded owner is forwarded
   (never wedged, never granted by the stale site). *)
let test_stale_hint_forwarded () =
  let sim = L.make ~n_sites:4 ~config:(shard_config ()) () in
  let cl = sim.L.cluster in
  let granted = ref 0 in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"driver" (fun env ->
         let c = Api.creat env path ~vid:1 in
         Api.write_string env c (String.make 64 'x');
         Api.close env c;
         let f = Option.get (K.lookup cl path) in
         let home = K.shard_default_owner cl f in
         let client = (home + 1) mod 4 and dst = (home + 2) mod 4 in
         let p =
           Api.fork env ~site:client ~name:"client" (fun env ->
               let c = Api.open_file env path in
               (* First acquisition caches a hint for the current owner. *)
               (match Api.lock env c ~len:16 ~mode:Mode.Exclusive () with
               | Api.Granted -> incr granted
               | Api.Conflict _ -> ());
               Api.unlock env c ~len:16;
               Engine.sleep 40_000;
               (* The role has moved behind our back and the hint map
                  points at the superseded owner; the stale hint must
                  bounce us to the new owner, not deny or self-grant. *)
               Api.seek env c ~pos:0;
               (match Api.lock env c ~len:16 ~mode:Mode.Exclusive () with
               | Api.Granted -> incr granted
               | Api.Conflict _ -> ());
               Api.unlock env c ~len:16;
               Api.close env c)
         in
         Engine.sleep 10_000;
         K.force_migrate cl ~src:0 f ~dst;
         (* Migration refreshes the shared hint map; poison it back to
            the superseded owner to model a client that cached the
            authority before the hand-off. *)
         K.note_lock_authority cl f home;
         Api.wait_pid env p));
  L.run sim;
  Alcotest.(check int) "both acquisitions granted" 2 !granted;
  let f = Option.get (K.lookup cl path) in
  let home = K.shard_default_owner cl f in
  (match K.shard_owner cl f with
  | Some (owner, _) ->
      Alcotest.(check int) "role is at the migrated-to site"
        ((home + 2) mod 4) owner
  | None -> Alcotest.fail "sharding is on");
  Alcotest.(check bool) "the stale hint was redirected or forwarded" true
    (stat sim "shard.redirects" + stat sim "shard.forwards" > 0)

(* Ownership migrates under a live transaction: the retained exclusive
   lock rides the transfer envelope and commit's phase 2 releases it at
   the new owner. *)
let test_migration_under_transaction () =
  let sim = L.make ~n_sites:4 ~config:(shard_config ()) () in
  let cl = sim.L.cluster in
  let outcome = ref None in
  ignore
    (Api.spawn_process cl ~site:1 ~name:"txn" (fun env ->
         let c = Api.creat env path ~vid:1 in
         Api.write_string env c (String.make 32 '.');
         Api.close env c;
         let f = Option.get (K.lookup cl path) in
         let c = Api.open_file env path in
         Api.begin_trans env;
         ignore (Api.lock env c ~len:32 ~mode:Mode.Exclusive ());
         Api.pwrite env c ~pos:0 (Bytes.of_string "AAAA");
         (* Hand the lock-manager role to site 2 mid-transaction. *)
         ignore
           (Engine.spawn ~name:"migrate" ~site:1 (K.engine cl) (fun () ->
                K.force_migrate cl ~src:1 f ~dst:2));
         Engine.sleep 50_000;
         Api.pwrite env c ~pos:4 (Bytes.of_string "BBBB");
         outcome := Some (Api.end_trans env);
         Api.close env c));
  L.run sim;
  Alcotest.(check bool) "transaction committed" true
    (!outcome = Some K.Committed);
  let f = Option.get (K.lookup cl path) in
  Alcotest.(check string) "both writes durable" "AAAABBBB"
    (String.sub (K.read_committed_oracle cl f) 0 8);
  (match K.shard_owner cl f with
  | Some (owner, epoch) ->
      Alcotest.(check int) "role moved" 2 owner;
      Alcotest.(check bool) "epoch advanced" true (epoch >= 1)
  | None -> Alcotest.fail "sharding is on");
  Alcotest.(check int) "nobody left in doubt" 0
    (List.length (K.in_doubt_participants cl))

(* A crashed owner's role is re-homed through the directory (epoch CAS)
   by the storage site's EOF path — the role is never stuck at a corpse. *)
let test_owner_crash_rehome () =
  let sim = L.make ~n_sites:4 ~config:(shard_config ()) () in
  let cl = sim.L.cluster in
  let appended = ref false in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"driver" (fun env ->
         let c = Api.creat env path ~vid:1 in
         Api.write_string env c (String.make 16 'x');
         Api.close env c;
         let f = Option.get (K.lookup cl path) in
         let home = K.shard_default_owner cl f in
         (* Pick a destination that is neither the storage site nor the
            fid's directory site, so the directory survives the crash. *)
         let dir = Dir.create ~n_shards:8 ~n_sites:4 in
         let ds = Dir.site_of dir f in
         let dst =
           List.find
             (fun s -> s <> home && s <> ds)
             [ 1; 2; 3; 0 ]
         in
         K.force_migrate cl ~src:0 f ~dst;
         Engine.sleep 10_000;
         K.crash_site cl dst;
         Engine.sleep 10_000;
         (* Atomic EOF-and-lock needs the role at the storage site; with
            the owner dead that means a directory re-home, not a wait. *)
         let c = Api.open_file env path in
         Api.set_append env c true;
         (match Api.lock env c ~len:8 ~mode:Mode.Exclusive () with
         | Api.Granted -> appended := true
         | Api.Conflict _ -> ());
         Api.write_string env c "appended";
         Api.close env c));
  L.run sim;
  Alcotest.(check bool) "EOF lock granted after the owner died" true !appended;
  Alcotest.(check bool) "re-homed through the directory" true
    (stat sim "shard.rehomed" >= 1);
  let f = Option.get (K.lookup cl path) in
  (match K.shard_owner cl f with
  | Some (owner, epoch) ->
      Alcotest.(check int) "role back at the storage site"
        (K.shard_default_owner cl f) owner;
      Alcotest.(check bool) "epoch fenced past the corpse" true (epoch >= 2)
  | None -> Alcotest.fail "sharding is on")

(* {1 Sweeps and the oracle inversion} *)

(* Miniature of the CI lane: Paxos Commit with crash / partition /
   coordinator-kill / forced-migration faults rotating across seeds —
   every history 1SR, every run drains with nobody blocked. *)
let test_sweep_migrate_faults () =
  let cfg =
    {
      Ex.default_config with
      sites = 5;
      shards = 8;
      fault_every = Some 3;
      commit = `Paxos 1;
    }
  in
  List.iter
    (fun seed ->
      let _, _, report, blocked = Ex.run_seed cfg seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d serializable" seed)
        true (Ck.ok report);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d live" seed)
        true (blocked = []))
    (Ex.seeds ~n:25 ~from:40)

(* 64 sites, 64-way directory: the scale end of the 32-128 range. *)
let test_large_cluster_smoke () =
  let cfg =
    {
      Ex.default_config with
      sites = 64;
      txns = 8;
      shards = 64;
      fault_every = Some 5;
    }
  in
  List.iter
    (fun seed ->
      let _, _, report, blocked = Ex.run_seed cfg seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d serializable at 64 sites" seed)
        true (Ck.ok report);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d live at 64 sites" seed)
        true (blocked = []))
    (Ex.seeds ~n:5 ~from:0)

(* Self-test inversion: an owner that keeps granting at its superseded
   epoch instead of standing down MUST be flagged by the epoch-fence
   oracle as an unpermitted violation — proving the oracle has teeth. *)
let test_break_shard_flags_fenced_grant () =
  Mutant.(with_armed [ Shard ]) @@ fun () ->
  let cfg =
    { Ex.default_config with sites = 4; shards = 8; fault_every = Some 2 }
  in
  let fenced seed =
    let _, _, report, _ = Ex.run_seed cfg seed in
    List.exists
      (fun c ->
        match c.Ck.violation with
        | Ck.Fenced_grant _ ->
            Alcotest.(check bool) "fenced grants are never permitted" false
              c.Ck.permitted;
            true
        | Ck.Dirty_read _ | Ck.Cycle _ | Ck.Stale_read _ | Ck.Dup_apply _ -> false)
      report.Ck.violations
  in
  Alcotest.(check bool)
    "some seed catches the stale owner granting" true
    (List.exists fenced (Ex.seeds ~n:20 ~from:0))

let suite =
  [
    ( "shard",
      [
        Alcotest.test_case "directory epoch CAS" `Quick test_directory_cas;
        Alcotest.test_case "migration policy" `Quick test_policy;
        Alcotest.test_case "threshold migration follows traffic" `Quick
          test_threshold_migration;
        Alcotest.test_case "stale hint forwarded" `Quick
          test_stale_hint_forwarded;
        Alcotest.test_case "migration under a live transaction" `Quick
          test_migration_under_transaction;
        Alcotest.test_case "owner crash re-homes through directory" `Quick
          test_owner_crash_rehome;
        Alcotest.test_case "sweep: migrate faults stay 1SR and live" `Quick
          test_sweep_migrate_faults;
        Alcotest.test_case "64-site smoke" `Quick test_large_cluster_smoke;
        Alcotest.test_case "break-shard flags fenced grant" `Quick
          test_break_shard_flags_fenced_grant;
      ] );
  ]
