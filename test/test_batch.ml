(* Locus_batch: group commit, RPC coalescing, lock-read piggybacking,
   and the unified RPC timeout default. *)

module V = Locus_disk.Volume
module T = Locus_net.Transport
module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module M = Locus_lock.Mode
module Ck = Locus_check

let in_sim f =
  let e = Engine.create () in
  ignore (Engine.spawn e (fun () -> f e));
  Engine.run e

(* {1 Volume-level group commit} *)

let test_group_commit_shares_force () =
  let e = Engine.create () in
  let v = V.create e ~vid:1 () in
  V.set_group_commit v ~site:0 ~window_us:1_000;
  List.iter
    (fun i ->
      ignore
        (Engine.spawn e (fun () ->
             ignore (V.log_append v ~tag:"t" (Printf.sprintf "r%d" i)))))
    [ 0; 1; 2; 3 ];
  Engine.run e;
  Alcotest.(check int) "one shared force" 1 (V.io_log_writes v);
  Alcotest.(check int) "all records installed" 4
    (List.length (V.log_records v));
  let st = Engine.stats e in
  Alcotest.(check int) "one group force" 1 (Stats.get st "log.group_forces");
  Alcotest.(check int) "three forces saved" 3 (Stats.get st "log.forces_saved")

let test_window_zero_is_unbatched () =
  let e = Engine.create () in
  let v = V.create e ~vid:1 () in
  List.iter
    (fun i ->
      ignore
        (Engine.spawn e (fun () ->
             ignore (V.log_append v ~tag:"t" (Printf.sprintf "r%d" i)))))
    [ 0; 1; 2; 3 ];
  Engine.run e;
  Alcotest.(check int) "one force per record" 4 (V.io_log_writes v);
  Alcotest.(check int) "no group forces" 0
    (Stats.get (Engine.stats e) "log.group_forces")

let test_break_batch_degrades_group_commit () =
  Mutant.(with_armed [ Batch ]) @@ fun () ->
  let e = Engine.create () in
  let v = V.create e ~vid:1 () in
  V.set_group_commit v ~site:0 ~window_us:1_000;
  List.iter
    (fun i ->
      ignore
        (Engine.spawn e (fun () ->
             ignore (V.log_append v ~tag:"t" (Printf.sprintf "r%d" i)))))
    [ 0; 1; 2 ];
  Engine.run e;
  Alcotest.(check int) "degraded to one force per record" 3 (V.io_log_writes v)

let test_append_many_is_one_submission () =
  let e = Engine.create () in
  let v = V.create e ~vid:1 () in
  V.set_group_commit v ~site:0 ~window_us:1_000;
  ignore
    (Engine.spawn e (fun () ->
         ignore (V.log_append_many v ~tag:"multi" [ "a"; "b"; "c" ])));
  Engine.run e;
  Alcotest.(check int) "one force for the group" 1 (V.io_log_writes v);
  Alcotest.(check (list string))
    "records in submission order" [ "a"; "b"; "c" ]
    (List.map (fun (_, _, p) -> p) (V.log_records v))

let test_crash_inside_window_is_atomic () =
  let e = Engine.create () in
  let v = V.create e ~vid:1 () in
  V.set_group_commit v ~site:1 ~window_us:50_000;
  (* Submitters run at the volume's site, like the kernel's commit path:
     the crash must take flusher and waiters down together, and nothing
     submitted inside the window may become durable. *)
  List.iter
    (fun i ->
      ignore
        (Engine.spawn ~site:1 e (fun () ->
             ignore (V.log_append v ~tag:"t" (Printf.sprintf "r%d" i)))))
    [ 0; 1; 2 ];
  ignore
    (Engine.spawn e (fun () ->
         Engine.sleep 2_000;
         Engine.kill_site e 1;
         V.reset_group_commit v));
  Engine.run e;
  Alcotest.(check int) "no force happened" 0 (V.io_log_writes v);
  Alcotest.(check int) "no record survived" 0 (List.length (V.log_records v));
  (* The batcher recovers after the crash: the next submission opens a
     fresh window (re-homed to a live site) and flushes normally. *)
  V.set_group_commit v ~site:0 ~window_us:50_000;
  ignore (Engine.spawn e (fun () -> ignore (V.log_append v ~tag:"t" "after")));
  Engine.run e;
  Alcotest.(check int) "post-crash force" 1 (V.io_log_writes v);
  Alcotest.(check (list string))
    "post-crash record" [ "after" ]
    (List.map (fun (_, _, p) -> p) (V.log_records v))

(* {1 Transport RPC coalescing} *)

let batch_codec =
  let wrap reqs = "B," ^ String.concat "," reqs in
  let unwrap resp =
    match String.split_on_char '|' resp with
    | [ _ ] -> None
    | parts -> Some parts
  in
  (wrap, unwrap)

let batch_handler calls ~src:_ req =
  calls := req :: !calls;
  match String.split_on_char ',' req with
  | "B" :: parts -> String.concat "|" (List.map (fun p -> "R" ^ p) parts)
  | _ -> "R" ^ req

let test_rpc_coalescing () =
  let e = Engine.create () in
  let t = T.create e ~n_sites:2 in
  let wrap, unwrap = batch_codec in
  T.set_batch t ~window_us:500 ~wrap ~unwrap ();
  let calls = ref [] in
  T.set_handler t 1 (batch_handler calls);
  let results = Array.make 2 (Error T.No_handler) in
  ignore
    (Engine.spawn ~site:0 e (fun () ->
         results.(0) <- T.rpc_batched t ~src:0 ~dst:1 "a"));
  ignore
    (Engine.spawn ~site:0 e (fun () ->
         results.(1) <- T.rpc_batched t ~src:0 ~dst:1 "b"));
  Engine.run e;
  Alcotest.(check (list string)) "one wire message" [ "B,a,b" ] !calls;
  Alcotest.(check bool) "first reply fanned out" true (results.(0) = Ok "Ra");
  Alcotest.(check bool) "second reply fanned out" true (results.(1) = Ok "Rb");
  let st = Engine.stats e in
  Alcotest.(check int) "one batch" 1 (Stats.get st "rpc.batches");
  Alcotest.(check int) "two members" 2 (Stats.get st "rpc.batched");
  Alcotest.(check int) "saved a round trip" 2 (Stats.get st "net.msg_saved")

let test_rpc_batch_singleton_bypasses_wrap () =
  let e = Engine.create () in
  let t = T.create e ~n_sites:2 in
  let wrap, unwrap = batch_codec in
  T.set_batch t ~window_us:500 ~wrap ~unwrap ();
  let calls = ref [] in
  T.set_handler t 1 (batch_handler calls);
  let result = ref (Error T.No_handler) in
  ignore
    (Engine.spawn ~site:0 e (fun () ->
         result := T.rpc_batched t ~src:0 ~dst:1 "solo"));
  Engine.run e;
  Alcotest.(check (list string)) "sent unwrapped" [ "solo" ] !calls;
  Alcotest.(check bool) "plain reply" true (!result = Ok "Rsolo");
  Alcotest.(check int) "no batch counted" 0
    (Stats.get (Engine.stats e) "rpc.batches")

let test_rpc_batch_local_calls_skip_window () =
  let e = Engine.create () in
  let t = T.create e ~n_sites:2 in
  let wrap, unwrap = batch_codec in
  T.set_batch t ~window_us:500 ~wrap ~unwrap ();
  let calls = ref [] in
  T.set_handler t 1 (batch_handler calls);
  let result = ref (Error T.No_handler) in
  ignore
    (Engine.spawn ~site:1 e (fun () ->
         result := T.rpc_batched t ~src:1 ~dst:1 "local";
         (* A local call never waits out the window. *)
         Alcotest.(check int) "no window delay" 0 (Engine.now e)));
  Engine.run e;
  Alcotest.(check bool) "handled" true (!result = Ok "Rlocal")

(* {1 Timer hygiene under batch windows} *)

let test_batched_run_leaves_no_timers () =
  (* Every RPC arms a 30 s timeout that [Engine.await_timeout] cancels on
     reply. With batch windows inserting extra sleeps on the hot path, a
     leaked or mis-cancelled timer would either strand events in the
     queue or drag the clock out to the timeout horizon when [run]
     drains it. *)
  let spec = Ck.Workload.gen ~seed:11 ~sites:3 ~txns:6 ~ops:3 ~records:4 () in
  let hist, sim = Ck.Workload.run ~replicas:2 ~batch_window:500 ~seed:11 spec in
  let e = sim.L.engine in
  Alcotest.(check int) "event queue drained" 0 (Engine.pending_events e);
  Alcotest.(check bool) "cancelled timers did not advance the clock" true
    (Engine.now e < T.default_rpc_timeout_us);
  Alcotest.(check bool) "history serializable" true
    (Ck.Checker.ok (Ck.Checker.check hist))

let test_crash_inside_batch_window_recovers () =
  (* A site crash while commits are parked in group-commit / RPC windows:
     recovery must resolve every in-flight transaction and the surviving
     history must stay one-copy serializable. *)
  let spec = Ck.Workload.gen ~seed:3 ~sites:3 ~txns:6 ~ops:3 ~records:4 () in
  let fault =
    Ck.Workload.Crash
      { victim = 1; after_decides = 1; restart_delay = 2_000_000 }
  in
  let hist, sim =
    Ck.Workload.run ~fault ~replicas:2 ~batch_window:500 ~seed:3 spec
  in
  Alcotest.(check bool) "serializable despite crash" true
    (Ck.Checker.ok (Ck.Checker.check hist));
  Alcotest.(check (list string)) "no transaction left unresolved" []
    (List.map Txid.to_string (K.active_transactions sim.L.cluster))

(* {1 Lock-read piggybacking} *)

let test_pread_locked_piggybacks () =
  let sim = L.make ~seed:7 ~n_sites:2 () in
  let cl = sim.L.cluster in
  let setup =
    Api.spawn_process cl ~site:0 (fun env ->
        let c = Api.creat env "/pig" ~vid:1 in
        Api.write_string env c "0123456789";
        Api.commit_file env c;
        Api.close env c)
  in
  ignore
    (Api.spawn_process cl ~site:0 (fun env ->
         Api.wait_pid env setup;
         let c = Api.open_file env "/pig" in
         Api.begin_trans env;
         let b = Api.pread_locked env c ~pos:0 ~len:4 in
         Alcotest.(check string) "data" "0123" (Bytes.to_string b);
         (* Second read of a covered range takes the plain path. *)
         let b2 = Api.pread_locked env c ~pos:1 ~len:3 in
         Alcotest.(check string) "covered rescan" "123" (Bytes.to_string b2);
         ignore (Api.end_trans env);
         Api.close env c));
  L.run sim;
  let st = Engine.stats sim.L.engine in
  Alcotest.(check int) "one piggybacked read" 1
    (Stats.get st "lock.piggyback_reads");
  Alcotest.(check int) "storage site granted implicitly" 1
    (Stats.get st "lock.piggyback")

let test_pread_locked_lock_is_retained () =
  let sim = L.make ~seed:8 ~n_sites:2 () in
  let cl = sim.L.cluster in
  let conflict = ref None in
  let setup =
    Api.spawn_process cl ~site:0 (fun env ->
        let c = Api.creat env "/pig2" ~vid:1 in
        Api.write_string env c "0123456789";
        Api.commit_file env c;
        Api.close env c)
  in
  ignore
    (Api.spawn_process cl ~site:0 (fun env ->
         Api.wait_pid env setup;
         let c = Api.open_file env "/pig2" in
         Api.begin_trans env;
         ignore (Api.pread_locked env c ~pos:0 ~len:4);
         (* Hold the transaction open while the rival tries to write. *)
         Engine.sleep 300_000;
         ignore (Api.end_trans env);
         Api.close env c));
  ignore
    (Api.spawn_process cl ~site:1 (fun env ->
         Api.wait_pid env setup;
         Engine.sleep 150_000;
         let c = Api.open_file env "/pig2" in
         Api.begin_trans env;
         Api.seek env c ~pos:0;
         conflict := Some (Api.lock env c ~len:4 ~mode:M.Exclusive ~wait:false ());
         ignore (Api.end_trans env);
         Api.close env c));
  L.run sim;
  (match !conflict with
  | Some (Api.Conflict _) -> ()
  | Some Api.Granted -> Alcotest.fail "exclusive lock granted over piggybacked shared lock"
  | None -> Alcotest.fail "rival never ran")

let test_nontransactional_read_skips_piggyback () =
  let sim = L.make ~seed:9 ~n_sites:2 () in
  let cl = sim.L.cluster in
  let setup =
    Api.spawn_process cl ~site:0 (fun env ->
        let c = Api.creat env "/pig3" ~vid:1 in
        Api.write_string env c "abcdef";
        Api.commit_file env c;
        Api.close env c)
  in
  ignore
    (Api.spawn_process cl ~site:0 (fun env ->
         Api.wait_pid env setup;
         let c = Api.open_file env "/pig3" in
         let b = Api.pread_locked env c ~pos:0 ~len:3 in
         Alcotest.(check string) "plain data" "abc" (Bytes.to_string b);
         Api.close env c));
  L.run sim;
  Alcotest.(check int) "no piggyback outside a transaction" 0
    (Stats.get (Engine.stats sim.L.engine) "lock.piggyback_reads")

(* {1 Configuration} *)

let test_rpc_timeout_single_source_of_truth () =
  Alcotest.(check int) "transport default is 30 s virtual" 30_000_000
    T.default_rpc_timeout_us;
  Alcotest.(check int) "kernel config inherits the transport default"
    T.default_rpc_timeout_us
    (K.Config.default ~n_sites:2).K.Config.rpc_timeout_us

let test_with_batching_sets_both_windows () =
  let cfg = K.Config.with_batching ~window_us:400 (K.Config.default ~n_sites:3) in
  Alcotest.(check int) "group commit window" 400 cfg.K.Config.group_commit_window_us;
  Alcotest.(check int) "rpc batch window" 400 cfg.K.Config.rpc_batch_window_us;
  let off = K.Config.default ~n_sites:3 in
  Alcotest.(check int) "default group window off" 0 off.K.Config.group_commit_window_us;
  Alcotest.(check int) "default rpc window off" 0 off.K.Config.rpc_batch_window_us

let test_batcher_window_reuse () =
  in_sim (fun e ->
      let b = Locus_batch.Batcher.create e ~name:"t" in
      Locus_batch.Batcher.configure b ~site:0 ~window_us:100;
      let flushed = ref [] in
      let flush items = flushed := items :: !flushed in
      Locus_batch.Batcher.submit b ~flush 1;
      Locus_batch.Batcher.submit b ~flush 2;
      Engine.sleep 200;
      (* Window expired: the next submit opens a fresh batch. *)
      Locus_batch.Batcher.submit b ~flush 3;
      Engine.sleep 200;
      Alcotest.(check (list (list int)))
        "two windows, order preserved" [ [ 3 ]; [ 1; 2 ] ] !flushed)

let suite =
  [
    ( "batch",
      [
        Alcotest.test_case "group commit shares one force" `Quick
          test_group_commit_shares_force;
        Alcotest.test_case "window 0 is unbatched" `Quick
          test_window_zero_is_unbatched;
        Alcotest.test_case "break-batch degrades group commit" `Quick
          test_break_batch_degrades_group_commit;
        Alcotest.test_case "append_many is one submission" `Quick
          test_append_many_is_one_submission;
        Alcotest.test_case "crash inside window is atomic" `Quick
          test_crash_inside_window_is_atomic;
        Alcotest.test_case "rpc coalescing" `Quick test_rpc_coalescing;
        Alcotest.test_case "singleton batch bypasses wrap" `Quick
          test_rpc_batch_singleton_bypasses_wrap;
        Alcotest.test_case "local calls skip the window" `Quick
          test_rpc_batch_local_calls_skip_window;
        Alcotest.test_case "batched run leaves no timers" `Quick
          test_batched_run_leaves_no_timers;
        Alcotest.test_case "crash inside batch window recovers" `Quick
          test_crash_inside_batch_window_recovers;
        Alcotest.test_case "pread_locked piggybacks the lock" `Quick
          test_pread_locked_piggybacks;
        Alcotest.test_case "piggybacked lock is retained" `Quick
          test_pread_locked_lock_is_retained;
        Alcotest.test_case "non-transactional read skips piggyback" `Quick
          test_nontransactional_read_skips_piggyback;
        Alcotest.test_case "rpc timeout has one source of truth" `Quick
          test_rpc_timeout_single_source_of_truth;
        Alcotest.test_case "with_batching sets both windows" `Quick
          test_with_batching_sets_both_windows;
        Alcotest.test_case "batcher reopens after the window" `Quick
          test_batcher_window_reuse;
      ] );
  ]
