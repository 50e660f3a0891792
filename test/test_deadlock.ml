(* Wait-for graphs: cycle detection and victim selection. *)

module W = Locus_deadlock.Wfg
module D = Locus_deadlock.Detector
module LT = Locus_lock.Lock_table
module M = Locus_lock.Mode

let tx n = Owner.Transaction (Txid.make ~site:0 ~incarnation:1 ~seq:n)
let proc n = Owner.Process (Pid.make ~origin:0 ~num:n)
let owner = Alcotest.testable Owner.pp Owner.equal

let test_acyclic () =
  let g = W.create () in
  W.add_edge g ~waiter:(tx 1) ~blocker:(tx 2);
  W.add_edge g ~waiter:(tx 2) ~blocker:(tx 3);
  Alcotest.(check (option (list owner))) "no cycle" None (W.find_cycle g);
  Alcotest.(check (list owner)) "no victims" [] (W.victims g)

let test_two_cycle () =
  let g = W.create () in
  W.add_edge g ~waiter:(tx 1) ~blocker:(tx 2);
  W.add_edge g ~waiter:(tx 2) ~blocker:(tx 1);
  (match W.find_cycle g with
  | Some cycle -> Alcotest.(check int) "length 2" 2 (List.length cycle)
  | None -> Alcotest.fail "cycle expected");
  (* Victim: the youngest transaction (largest seq). *)
  Alcotest.(check (list owner)) "youngest dies" [ tx 2 ] (W.victims g)

let test_three_cycle () =
  let g = W.create () in
  W.add_edge g ~waiter:(tx 1) ~blocker:(tx 2);
  W.add_edge g ~waiter:(tx 2) ~blocker:(tx 3);
  W.add_edge g ~waiter:(tx 3) ~blocker:(tx 1);
  match W.find_cycle g with
  | Some cycle -> Alcotest.(check int) "length 3" 3 (List.length cycle)
  | None -> Alcotest.fail "cycle expected"

let test_two_independent_cycles () =
  let g = W.create () in
  W.add_edge g ~waiter:(tx 1) ~blocker:(tx 2);
  W.add_edge g ~waiter:(tx 2) ~blocker:(tx 1);
  W.add_edge g ~waiter:(tx 5) ~blocker:(tx 6);
  W.add_edge g ~waiter:(tx 6) ~blocker:(tx 5);
  Alcotest.(check int) "two victims" 2 (List.length (W.victims g))

let test_prefers_transactions () =
  let g = W.create () in
  W.add_edge g ~waiter:(proc 1) ~blocker:(tx 9);
  W.add_edge g ~waiter:(tx 9) ~blocker:(proc 1);
  Alcotest.(check (list owner)) "transaction chosen over process" [ tx 9 ]
    (W.victims g)

let test_self_wait_excluded () =
  (* Same-owner edges can't arise from the lock table, but guard anyway. *)
  let g = W.create () in
  W.add_edge g ~waiter:(tx 1) ~blocker:(tx 1);
  match W.find_cycle g with
  | Some [ o ] -> Alcotest.check owner "self" (tx 1) o
  | _ -> Alcotest.fail "self loop should be a 1-cycle"

let test_from_lock_tables () =
  (* Build a real deadlock through two lock tables. *)
  let fa = File_id.make ~vid:1 ~ino:1 and fb = File_id.make ~vid:1 ~ino:2 in
  let p = Pid.make ~origin:0 ~num:1 in
  let ta = LT.create fa and tb = LT.create fb in
  let r = Byte_range.v ~lo:0 ~hi:10 in
  ignore (LT.request ta ~owner:(tx 1) ~pid:p ~mode:M.Exclusive ~range:r ~non_transaction:false);
  ignore (LT.request tb ~owner:(tx 2) ~pid:p ~mode:M.Exclusive ~range:r ~non_transaction:false);
  ignore (LT.enqueue ta ~owner:(tx 2) ~pid:p ~mode:M.Exclusive ~range:r ~non_transaction:false ~notify:(fun _ -> ()));
  ignore (LT.enqueue tb ~owner:(tx 1) ~pid:p ~mode:M.Exclusive ~range:r ~non_transaction:false ~notify:(fun _ -> ()));
  let g = W.of_tables [ ta; tb ] in
  (match W.find_cycle g with
  | Some c -> Alcotest.(check int) "deadlock found" 2 (List.length c)
  | None -> Alcotest.fail "deadlock expected");
  Alcotest.(check int) "edges" 2 (List.length (W.edges g))

let test_deterministic () =
  let build () =
    let g = W.create () in
    W.add_edge g ~waiter:(tx 3) ~blocker:(tx 1);
    W.add_edge g ~waiter:(tx 1) ~blocker:(tx 2);
    W.add_edge g ~waiter:(tx 2) ~blocker:(tx 3);
    W.add_edge g ~waiter:(tx 2) ~blocker:(tx 4);
    g
  in
  Alcotest.(check (list owner)) "same victims every time"
    (W.victims (build ())) (W.victims (build ()))

let prop_victims_break_all_cycles =
  QCheck.Test.make ~name:"victim removal leaves graph acyclic" ~count:200
    QCheck.(small_list (pair (int_bound 6) (int_bound 6)))
    (fun edges ->
      let g = W.create () in
      List.iter
        (fun (a, b) -> if a <> b then W.add_edge g ~waiter:(tx a) ~blocker:(tx b))
        edges;
      let victims = W.victims g in
      List.iter (W.remove g) victims;
      W.find_cycle g = None)

(* The reference for the differential properties below: the Map/Set
   wait-for graph and its victim loop, copied verbatim from the original
   [Wfg] (and [Detector.scan_report]). The int-indexed graph must return
   exactly what this returns. *)
module Oracle = struct
  type t = { mutable adj : Owner.Set.t Owner.Map.t }

  let create () = { adj = Owner.Map.empty }

  let add_node t o =
    if not (Owner.Map.mem o t.adj) then t.adj <- Owner.Map.add o Owner.Set.empty t.adj

  let add_edge t ~waiter ~blocker =
    add_node t waiter;
    add_node t blocker;
    t.adj <-
      Owner.Map.update waiter
        (function
          | Some s -> Some (Owner.Set.add blocker s)
          | None -> Some (Owner.Set.singleton blocker))
        t.adj

  let add_table t table =
    List.iter
      (fun (waiter, blockers) ->
        List.iter (fun blocker -> add_edge t ~waiter ~blocker) blockers)
      (Locus_lock.Lock_table.waits_for table)

  let of_tables tables =
    let t = create () in
    List.iter (add_table t) tables;
    t

  let edges t =
    Owner.Map.fold
      (fun waiter blockers acc ->
        Owner.Set.fold (fun blocker acc -> (waiter, blocker) :: acc) blockers acc)
      t.adj []
    |> List.rev

  let nodes t = List.map fst (Owner.Map.bindings t.adj)

  (* DFS with the classic three colors; traversal order follows the map's
     key order, so results are deterministic. *)
  let find_cycle t =
    let state = Hashtbl.create 16 in
    let rec visit path o =
      match Hashtbl.find_opt state o with
      | Some `Done -> None
      | Some `Active ->
        (* Found a back edge: the cycle is the suffix of [path] from [o]. *)
        let rec take = function
          | [] -> []
          | x :: rest -> if Owner.equal x o then [ x ] else x :: take rest
        in
        Some (List.rev (take path))
      | None ->
        Hashtbl.replace state o `Active;
        let succ =
          match Owner.Map.find_opt o t.adj with
          | Some s -> Owner.Set.elements s
          | None -> []
        in
        let rec try_succ = function
          | [] ->
            Hashtbl.replace state o `Done;
            None
          | s :: rest -> (
            match visit (o :: path) s with Some c -> Some c | None -> try_succ rest)
        in
        try_succ succ
    in
    let rec scan = function
      | [] -> None
      | o :: rest -> ( match visit [] o with Some c -> Some c | None -> scan rest)
    in
    scan (nodes t)

  let remove t o =
    t.adj <- Owner.Map.remove o t.adj;
    t.adj <- Owner.Map.map (fun s -> Owner.Set.remove o s) t.adj

  (* Victim preference: abort a transaction rather than block a plain
     process, and among transactions the youngest (largest sequence number)
     — it has probably done the least work. *)
  let prefer a b =
    match (a, b) with
    | Owner.Transaction x, Owner.Transaction y -> Txid.compare x y
    | Owner.Transaction _, Owner.Process _ -> 1
    | Owner.Process _, Owner.Transaction _ -> -1
    | Owner.Process x, Owner.Process y -> Pid.compare x y

  let victims t =
    let g = { adj = t.adj } in
    let rec go acc =
      match find_cycle g with
      | None -> List.rev acc
      | Some cycle ->
        let victim =
          List.fold_left
            (fun best o ->
              match best with
              | None -> Some o
              | Some b -> if prefer o b > 0 then Some o else best)
            None cycle
        in
        let victim = Option.get victim in
        remove g victim;
        go (victim :: acc)
    in
    go []

  let scan_report tables =
    let g = of_tables tables in
    let rec collect acc =
      match find_cycle g with
      | None -> List.rev acc
      | Some cycle ->
        List.iter (remove g) cycle;
        collect (cycle :: acc)
    in
    match collect [] with [] -> `No_deadlock | cycles -> `Deadlocked cycles
end

(* Owners of the random states: transactions from two sites and two
   incarnations, and plain processes. *)
let pool =
  [|
    tx 1; tx 2; tx 3; tx 4; tx 5; proc 1; proc 2; proc 3;
    Owner.Transaction (Txid.make ~site:1 ~incarnation:1 ~seq:0);
    Owner.Transaction (Txid.make ~site:0 ~incarnation:2 ~seq:1);
  |]

(* The same graph built both ways from [(waiter, blocker)] index pairs
   into [pool], with [remove]s interleaved: a pair whose first index is
   past the pool removes the owner its second index names. *)
let prop_graph_matches_oracle =
  QCheck.Test.make ~name:"wfg matches the Map/Set oracle" ~count:500
    QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 11) (int_bound 9)))
    (fun pairs ->
      let g = W.create () and o = Oracle.create () in
      List.iter
        (fun (a, b) ->
          if a >= Array.length pool then begin
            W.remove g pool.(b);
            Oracle.remove o pool.(b)
          end
          else begin
            W.add_edge g ~waiter:pool.(a) ~blocker:pool.(b);
            Oracle.add_edge o ~waiter:pool.(a) ~blocker:pool.(b)
          end)
        pairs;
      W.edges g = Oracle.edges o
      && W.find_cycle g = Oracle.find_cycle o
      && W.victims g = Oracle.victims o
      (* [victims] leaves the graph as it was. *)
      && W.edges g = Oracle.edges o)

(* A random multi-table lock state: each step locks (waiting on
   conflict), releases or cancels for one owner of [pool] in one of three
   tables, so owners hold locks, wait in several tables at once and
   leave cancelled waits behind. *)
let lock_state steps =
  let tables = Array.init 3 (fun i -> LT.create (File_id.make ~vid:1 ~ino:(200 + i))) in
  List.iter
    (fun (ti, oi, kind, lo, (len, excl)) ->
      let t = tables.(ti) and o = pool.(oi) in
      let pid = Pid.make ~origin:0 ~num:oi in
      match kind with
      | 8 -> LT.release_owner t o
      | 9 -> LT.cancel_owner t o
      | _ -> (
        let mode = if excl then M.Exclusive else M.Shared in
        let range = Byte_range.v ~lo ~hi:(lo + len) in
        match LT.request t ~owner:o ~pid ~mode ~range ~non_transaction:false with
        | `Granted -> ()
        | `Conflict _ ->
          ignore
            (LT.enqueue t ~owner:o ~pid ~mode ~range ~non_transaction:false
               ~notify:ignore)))
    steps;
  Array.to_list tables

let prop_detector_matches_oracle =
  QCheck.Test.make ~name:"detector matches the Map/Set oracle" ~count:500
    QCheck.(
      list_of_size
        Gen.(0 -- 40)
        (tup5 (int_bound 2) (int_bound 9) (int_bound 9) (int_bound 12)
           (pair (int_range 1 6) bool)))
    (fun steps ->
      let tables = lock_state steps in
      let o = Oracle.of_tables tables and g = W.of_tables tables in
      D.victims tables = Oracle.victims o
      && W.edges g = Oracle.edges o
      && W.find_cycle g = Oracle.find_cycle o
      && D.scan_report tables = Oracle.scan_report tables)

let suite =
  [
    ( "deadlock.wfg",
      [
        Alcotest.test_case "acyclic" `Quick test_acyclic;
        Alcotest.test_case "2-cycle" `Quick test_two_cycle;
        Alcotest.test_case "3-cycle" `Quick test_three_cycle;
        Alcotest.test_case "independent cycles" `Quick test_two_independent_cycles;
        Alcotest.test_case "prefers transactions" `Quick test_prefers_transactions;
        Alcotest.test_case "self wait" `Quick test_self_wait_excluded;
        Alcotest.test_case "from lock tables" `Quick test_from_lock_tables;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        QCheck_alcotest.to_alcotest prop_victims_break_all_cycles;
        QCheck_alcotest.to_alcotest prop_graph_matches_oracle;
      ] );
  ]

(* Appended: victim selection (Detector). *)

let mk_cycle_tables () =
  (* tx1 (old, many locks) and tx5 (young, one lock) deadlock. *)
  let fa = File_id.make ~vid:1 ~ino:10 and fb = File_id.make ~vid:1 ~ino:11 in
  let p = Pid.make ~origin:0 ~num:1 in
  let ta = LT.create fa and tb = LT.create fb in
  let r = Byte_range.v ~lo:0 ~hi:10 in
  let r2 = Byte_range.v ~lo:20 ~hi:30 in
  ignore (LT.request ta ~owner:(tx 1) ~pid:p ~mode:M.Exclusive ~range:r ~non_transaction:false);
  ignore (LT.request ta ~owner:(tx 1) ~pid:p ~mode:M.Exclusive ~range:r2 ~non_transaction:false);
  ignore (LT.request tb ~owner:(tx 5) ~pid:p ~mode:M.Exclusive ~range:r ~non_transaction:false);
  ignore (LT.enqueue ta ~owner:(tx 5) ~pid:p ~mode:M.Exclusive ~range:r ~non_transaction:false ~notify:(fun _ -> ()));
  ignore (LT.enqueue tb ~owner:(tx 1) ~pid:p ~mode:M.Exclusive ~range:r ~non_transaction:false ~notify:(fun _ -> ()));
  [ ta; tb ]

(* One owner (tx 3) waits in two tables at once, and a plain process
   sits on both the cycle and a second path: the victims and cycles are
   the oracle's. *)
let test_two_table_waiter () =
  let steps =
    List.map
      (fun (ti, oi) -> (ti, oi, 0, 0, (10, true)))
      [ (0, 0); (1, 1); (2, 5); (0, 2); (1, 2); (2, 0); (0, 5); (2, 1) ]
  in
  let tables = lock_state steps in
  let waits = List.concat_map LT.waits_for tables in
  Alcotest.(check int) "tx 3 waits in two tables" 2
    (List.length (List.filter (fun (w, _) -> Owner.equal w (tx 3)) waits));
  Alcotest.(check (list owner)) "victims" (Oracle.victims (Oracle.of_tables tables))
    (D.victims tables);
  Alcotest.(check bool) "some victim" true (D.victims tables <> []);
  Alcotest.(check bool) "scan report" true
    (D.scan_report tables = Oracle.scan_report tables)

(* Most scans find no live waiter; such a scan must not allocate. *)
let test_idle_scan_allocates_nothing () =
  let tables = lock_state [ (0, 0, 0, 0, (10, true)); (1, 5, 0, 4, (2, false)) ] in
  let before = Gc.minor_words () in
  let v = D.victims tables in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list owner)) "no victims" [] v;
  Alcotest.(check (float 0.)) "words allocated" 0. words

let test_policy_youngest () =
  Alcotest.(check (list owner)) "youngest dies" [ tx 5 ]
    (D.victims (mk_cycle_tables ()))

let test_scan_report () =
  (match D.scan_report (mk_cycle_tables ()) with
  | `Deadlocked [ cycle ] -> Alcotest.(check int) "one 2-cycle" 2 (List.length cycle)
  | `Deadlocked _ -> Alcotest.fail "expected one cycle"
  | `No_deadlock -> Alcotest.fail "expected deadlock");
  match D.scan_report [ LT.create (File_id.make ~vid:1 ~ino:99) ] with
  | `No_deadlock -> ()
  | `Deadlocked _ -> Alcotest.fail "empty table deadlocked?"

let test_policy_in_kernel () =
  (* End-to-end: the second (younger) transaction of an induced 2-cycle
     gets aborted. *)
  let module L = Locus_core.Locus in
  let module Api = L.Api in
  let first_committed = ref None in
  let sim = L.make ~n_sites:2 () in
  ignore
    (Api.spawn_process sim.Locus_core.Locus.cluster ~site:0 (fun env ->
         let c = Api.creat env "/r" ~vid:1 in
         Api.write_string env c (String.make 128 'i');
         Api.commit_file env c;
         let mk i delay pos1 pos2 outcome =
           Api.fork env ~name:(Printf.sprintf "t%d" i) (fun w ->
               Engine.sleep delay;
               Api.begin_trans w;
               Api.seek w c ~pos:pos1;
               (match Api.lock w c ~len:64 ~mode:L.Mode.Exclusive () with
               | Api.Granted -> ()
               | Api.Conflict _ -> ());
               Engine.sleep 50_000;
               Api.seek w c ~pos:pos2;
               (match Api.lock w c ~len:64 ~mode:L.Mode.Exclusive () with
               | Api.Granted -> ()
               | Api.Conflict _ -> ());
               outcome := Some (Api.end_trans w))
         in
         let o1 = ref None and o2 = ref None in
         let p1 = mk 1 0 0 64 o1 in
         let p2 = mk 2 1_000 64 0 o2 in
         Api.wait_pid env p1;
         Api.wait_pid env p2;
         (* t2 (started second -> younger txid) is the victim: only t1
            reports an outcome. *)
         first_committed := (match (!o1, !o2) with
           | Some L.Kernel.Committed, None -> Some true
           | _ -> Some false)));
  L.run sim;
  Alcotest.(check (option bool)) "younger aborted, older committed" (Some true)
    !first_committed

(* A 3-cycle spread over three sites: worker [i] runs at site [i], locks
   record [i] and then record [i+1]. [prepare] sees the cluster before
   anything runs. *)
let run_three_cycle ?(prepare = fun _ -> ()) () =
  let module L = Locus_core.Locus in
  let module Api = L.Api in
  let n = 3 in
  let sim = L.make ~n_sites:n () in
  prepare sim.L.cluster;
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 (fun env ->
         let c = Api.creat env "/r" ~vid:1 in
         Api.write_string env c (String.make (64 * n) 'i');
         Api.commit_file env c;
         let lock_at w pos =
           Api.seek w c ~pos;
           ignore (Api.lock w c ~len:64 ~mode:L.Mode.Exclusive ())
         in
         let worker i =
           Api.fork env ~site:i (fun w ->
               Api.begin_trans w;
               lock_at w (i * 64);
               Engine.sleep 500_000;
               lock_at w (64 * ((i + 1) mod n));
               ignore (Api.end_trans w))
         in
         List.iter (Api.wait_pid env) (List.init n worker)));
  L.run sim;
  (n, sim)

let test_cycle_outcomes_observed () =
  (* The 3-cycle, watched through the kernel's event stream: the victim
     aborts exactly once, the survivors commit. If its cancelled lock wait
     wakes the victim's process before the kill, the failing process must
     not abort its transaction a second time. *)
  let module L = Locus_core.Locus in
  let module Obs = Locus_core.Obs in
  let events = ref [] in
  let n, sim =
    run_three_cycle
      ~prepare:(fun cl ->
        L.Kernel.set_observer cl (Some (fun r -> events := r.Obs.ev :: !events)))
      ()
  in
  let pick f = List.filter_map f !events in
  let begun = pick (function Obs.Begin { txid; _ } -> Some txid | _ -> None) in
  let aborted = pick (function Obs.Abort { txid } -> Some txid | _ -> None) in
  let committed = pick (function Obs.Commit { txid } -> Some txid | _ -> None) in
  let file_aborts =
    pick (function Obs.File_abort { owner; fid } -> Some (owner, fid) | _ -> None)
  in
  let sort = List.sort_uniq Txid.compare in
  let stat = L.Stats.get (Engine.stats sim.L.engine) in
  Alcotest.(check int) "one victim" 1 (stat "deadlock.victims");
  Alcotest.(check int) "one abort request per victim" (stat "deadlock.victims")
    (stat "txn.abort_requests");
  Alcotest.(check int) "no user abort" 0 (stat "txn.abort.user");
  Alcotest.(check int) "one Abort record" 1 (List.length aborted);
  Alcotest.(check int) "one file-abort round per file"
    (List.length (List.sort_uniq compare file_aborts))
    (List.length file_aborts);
  Alcotest.(check int) "each survivor commits once" (n - 1) (List.length committed);
  Alcotest.(check bool) "outcomes partition the begun txids" true
    (List.sort Txid.compare (aborted @ committed) = sort begun)

let test_cycle_abort_without_probe () =
  (* The location hints of the 3-cycle are all right, so the victim's
     abort reaches every process without a Find_process probe (§4.1). *)
  let module L = Locus_core.Locus in
  let otr = ref None in
  let _, sim =
    run_three_cycle
      ~prepare:(fun cl ->
        let tr = L.Otrace.create (L.Kernel.engine cl) in
        otr := Some tr;
        L.Kernel.set_otracer cl (Some tr))
      ()
  in
  let stat = L.Stats.get (Engine.stats sim.L.engine) in
  Alcotest.(check int) "one victim" 1 (stat "deadlock.victims");
  Alcotest.(check bool) "no find-process RPC" true
    (L.Otrace.phase (Option.get !otr) "find-process" = None)

(* A hot-spot closed loop in the shape of the benchmark's [hotspot]
   workload: 24 clients over three sites, each running transactions that
   lock and update records of one striped file per site, a third of the
   ops remote. Deadlock scans at two sites then pick the same victim
   while its abort is in flight; it must still count as one victim. *)
let test_victim_counted_once () =
  let module L = Locus_core.Locus in
  let module Api = L.Api in
  let sites = 3 and records = 8 and rec_len = 16 in
  let sim = L.make ~seed:1 ~n_sites:sites () in
  let cl = sim.L.cluster in
  let path i = Printf.sprintf "/stripe%d" i in
  ignore
    (Api.spawn_process cl ~site:0 (fun env ->
         for i = 0 to sites - 1 do
           let c = Api.creat env (path i) ~vid:i in
           Api.write_string env c (String.make (records * rec_len) '0');
           Api.close env c
         done));
  L.run sim;
  let txn prng env =
    let home = Api.site env in
    let chans = Hashtbl.create 3 in
    let chan i =
      match Hashtbl.find_opt chans i with
      | Some c -> c
      | None ->
        let c = Api.open_file env (path i) in
        Hashtbl.replace chans i c;
        c
    in
    Api.begin_trans env;
    for _ = 1 to Prng.int_in prng ~lo:2 ~hi:4 do
      let stripe =
        if Prng.float prng 1.0 < 1. /. 3. then
          (home + 1 + Prng.int prng (sites - 1)) mod sites
        else home
      in
      let c = chan stripe in
      let pos = Prng.int prng records * rec_len in
      let update = Prng.float prng 1.0 >= 0.2 in
      Api.seek env c ~pos;
      let mode = if update then L.Mode.Exclusive else L.Mode.Shared in
      ignore (Api.lock env c ~len:rec_len ~mode ());
      let v = Api.pread env c ~pos ~len:rec_len in
      if update then Api.pwrite env c ~pos (Bytes.map (fun _ -> '1') v)
    done;
    ignore (Api.end_trans env)
  in
  for i = 0 to 23 do
    let prng = Prng.create ~seed:(7919 + i) in
    ignore
      (Engine.spawn (L.Kernel.engine cl) (fun () ->
           for _ = 1 to 12 do
             let site = Prng.int prng sites in
             let pid = Api.spawn_process cl ~site (txn prng) in
             Engine.await (Api.exit_of cl pid)
           done))
  done;
  L.run sim;
  let stat = L.Stats.get (Engine.stats sim.L.engine) in
  Alcotest.(check bool) "some scan found a victim" true
    (stat "deadlock.victims" > 0);
  Alcotest.(check int) "every victim aborted once" (stat "txn.abort.deadlock")
    (stat "deadlock.victims")

let suite =
  suite
  @ [
      ( "deadlock.detector",
        [
          Alcotest.test_case "youngest policy" `Quick test_policy_youngest;
          Alcotest.test_case "scan report" `Quick test_scan_report;
          Alcotest.test_case "waiter in two tables" `Quick test_two_table_waiter;
          Alcotest.test_case "idle scan allocates nothing" `Quick
            test_idle_scan_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_detector_matches_oracle;
          Alcotest.test_case "policy in kernel" `Quick test_policy_in_kernel;
          Alcotest.test_case "cycle outcomes observed" `Quick
            test_cycle_outcomes_observed;
          Alcotest.test_case "cycle abort sends no probe" `Quick
            test_cycle_abort_without_probe;
          Alcotest.test_case "victim picked twice counts once" `Quick
            test_victim_counted_once;
        ] );
    ]
