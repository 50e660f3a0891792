(* Locus_check: history recorder, serializability checker, schedule
   explorer and workload shrinker. *)

module Ck = Locus_check
module Obs = Locus_core.Obs
module M = Locus_lock.Mode
module L = Locus_core.Locus
module Api = L.Api

let txid n = Txid.make ~site:0 ~incarnation:1 ~seq:n
let p n = Pid.make ~origin:0 ~num:n
let fid = File_id.make ~vid:1 ~ino:7
let br lo hi = Byte_range.v ~lo ~hi
let ev at e = { Obs.at; site = 0; ev = e }
let acc owner pd range = { Obs.owner; pid = pd; fid; range; data = "" }

(* {1 Recorder} *)

let test_recorder_attach () =
  let sim = L.make ~seed:1 ~n_sites:2 () in
  let h = Ck.History.create () in
  Ck.History.attach h sim.L.cluster;
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 (fun env ->
         let c = Api.creat env "/t" ~vid:1 in
         Api.begin_trans env;
         Api.write_string env c "hello";
         ignore (Api.end_trans env);
         Api.close env c));
  L.run sim;
  let evs = Ck.History.events h in
  let has pr = List.exists (fun r -> pr r.Obs.ev) evs in
  Alcotest.(check bool) "nonempty" true (Ck.History.length h > 0);
  Alcotest.(check bool) "begin observed" true
    (has (function Obs.Begin _ -> true | _ -> false));
  Alcotest.(check bool) "write observed" true
    (has (function Obs.Write _ -> true | _ -> false));
  Alcotest.(check bool) "commit observed" true
    (has (function Obs.Commit _ -> true | _ -> false))

(* {1 Checker on live histories} *)

let test_serializable_sweep () =
  let module E = Ck.Explore in
  let r = E.sweep ~seeds:(E.seeds ~n:25 ~from:0) () in
  Alcotest.(check int) "all seeds checked" 25 r.E.checked;
  Alcotest.(check int) "no unpermitted violations" 0 (List.length r.E.failures);
  Alcotest.(check bool) "events observed" true (r.E.events > 0)

let test_crashy_sweep () =
  let module E = Ck.Explore in
  let cfg = { E.default_config with E.sites = 3; fault_every = Some 3 } in
  let r = E.sweep ~config:cfg ~seeds:(E.seeds ~n:12 ~from:40) () in
  Alcotest.(check int) "all seeds checked" 12 r.E.checked;
  Alcotest.(check int) "no unpermitted violations" 0 (List.length r.E.failures)

let test_replicated_sweep () =
  let module E = Ck.Explore in
  let cfg =
    { E.default_config with E.sites = 3; replicas = 2; fault_every = Some 4 }
  in
  let r = E.sweep ~config:cfg ~seeds:(E.seeds ~n:12 ~from:80) () in
  Alcotest.(check int) "all seeds checked" 12 r.E.checked;
  Alcotest.(check int) "no unpermitted violations" 0 (List.length r.E.failures)

(* {1 Checker on fabricated histories} *)

let test_dirty_read_detected () =
  let t1 = txid 1 and t2 = txid 2 in
  let o1 = Owner.Transaction t1 and o2 = Owner.Transaction t2 in
  let h =
    Ck.History.of_events
      [
        ev 0 (Obs.Begin { txid = t1; pid = p 1 });
        ev 1 (Obs.Begin { txid = t2; pid = p 2 });
        ev 2 (Obs.Write (acc o1 (p 1) (br 0 16)));
        ev 3 (Obs.Read (acc o2 (p 2) (br 0 16)));
        ev 4 (Obs.Commit { txid = t1 });
        ev 5 (Obs.Commit { txid = t2 });
      ]
  in
  let r = Ck.Checker.check h in
  Alcotest.(check bool) "not ok" false (Ck.Checker.ok r);
  Alcotest.(check bool) "dirty read reported" true
    (List.exists
       (fun c ->
         match c.Ck.Checker.violation with
         | Ck.Checker.Dirty_read _ -> not c.Ck.Checker.permitted
         | Ck.Checker.Cycle _ | Ck.Checker.Stale_read _
         | Ck.Checker.Fenced_grant _ | Ck.Checker.Dup_apply _ -> false)
       r.Ck.Checker.violations)

let test_cycle_detected () =
  (* Two committed transactions with RW conflicts in both directions:
     no dirty read anywhere, yet not serializable. *)
  let t1 = txid 1 and t2 = txid 2 in
  let o1 = Owner.Transaction t1 and o2 = Owner.Transaction t2 in
  let h =
    Ck.History.of_events
      [
        ev 0 (Obs.Begin { txid = t1; pid = p 1 });
        ev 1 (Obs.Begin { txid = t2; pid = p 2 });
        ev 2 (Obs.Read (acc o1 (p 1) (br 0 16)));
        ev 3 (Obs.Read (acc o2 (p 2) (br 16 32)));
        ev 4 (Obs.Write (acc o2 (p 2) (br 0 16)));
        ev 5 (Obs.Write (acc o1 (p 1) (br 16 32)));
        ev 6 (Obs.Commit { txid = t1 });
        ev 7 (Obs.Commit { txid = t2 });
      ]
  in
  let r = Ck.Checker.check h in
  Alcotest.(check bool) "not ok" false (Ck.Checker.ok r);
  Alcotest.(check bool) "unpermitted cycle reported" true
    (List.exists
       (fun c ->
         match c.Ck.Checker.violation with
         | Ck.Checker.Cycle _ -> not c.Ck.Checker.permitted
         | Ck.Checker.Dirty_read _ | Ck.Checker.Stale_read _
         | Ck.Checker.Fenced_grant _ | Ck.Checker.Dup_apply _ -> false)
       r.Ck.Checker.violations)

let test_non_transaction_lock_permitted () =
  (* §3.4: a write made under a non-transaction lock may be seen by
     others before commit — a violation of serializability the paper
     deliberately permits (directories). The checker must classify it
     as permitted, not flag the run. *)
  let t1 = txid 1 and t2 = txid 2 in
  let o1 = Owner.Transaction t1 and o2 = Owner.Transaction t2 in
  let h =
    Ck.History.of_events
      [
        ev 0 (Obs.Begin { txid = t1; pid = p 1 });
        ev 1 (Obs.Begin { txid = t2; pid = p 2 });
        ev 2
          (Obs.Lock
             {
               owner = o1;
               pid = p 1;
               fid;
               range = br 0 16;
               mode = M.Exclusive;
               non_transaction = true;
             });
        ev 3 (Obs.Write (acc o1 (p 1) (br 0 16)));
        ev 4 (Obs.Read (acc o2 (p 2) (br 0 16)));
        ev 5 (Obs.Commit { txid = t2 });
        ev 6 (Obs.Commit { txid = t1 });
      ]
  in
  let r = Ck.Checker.check h in
  Alcotest.(check bool) "run passes" true (Ck.Checker.ok r);
  Alcotest.(check int) "no unpermitted" 0 (List.length (Ck.Checker.unpermitted r));
  Alcotest.(check bool) "the dirty read is reported as permitted" true
    (List.exists
       (fun c ->
         match c.Ck.Checker.violation with
         | Ck.Checker.Dirty_read _ -> c.Ck.Checker.permitted
         | Ck.Checker.Cycle _ | Ck.Checker.Stale_read _
         | Ck.Checker.Fenced_grant _ | Ck.Checker.Dup_apply _ -> false)
       (Ck.Checker.permitted r))

let test_process_writer_permitted () =
  (* Uncommitted data left visible by a plain process (§3.3): permitted. *)
  let t2 = txid 2 in
  let o1 = Owner.Process (p 1) and o2 = Owner.Transaction t2 in
  let h =
    Ck.History.of_events
      [
        ev 0 (Obs.Begin { txid = t2; pid = p 2 });
        ev 1 (Obs.Write (acc o1 (p 1) (br 0 16)));
        ev 2 (Obs.Read (acc o2 (p 2) (br 0 16)));
        ev 3 (Obs.Commit { txid = t2 });
      ]
  in
  let r = Ck.Checker.check h in
  Alcotest.(check bool) "run passes" true (Ck.Checker.ok r);
  Alcotest.(check int) "permitted dirty read" 1
    (List.length (Ck.Checker.permitted r))

let test_commit_without_begin () =
  (* A transaction's first outcome alone decides whether it is in the
     graph: one whose Begin the history never saw still takes part in
     cycles. *)
  let t1 = txid 1 and t2 = txid 2 in
  let o1 = Owner.Transaction t1 and o2 = Owner.Transaction t2 in
  let h =
    Ck.History.of_events
      [
        ev 0 (Obs.Read (acc o1 (p 1) (br 0 16)));
        ev 1 (Obs.Read (acc o2 (p 2) (br 16 32)));
        ev 2 (Obs.Write (acc o2 (p 2) (br 0 16)));
        ev 3 (Obs.Write (acc o1 (p 1) (br 16 32)));
        ev 4 (Obs.Commit { txid = t1 });
        ev 5 (Obs.Commit { txid = t2 });
      ]
  in
  let r = Ck.Checker.check h in
  Alcotest.(check int) "no Begin, so not in the committed list" 0
    (List.length r.Ck.Checker.committed);
  Alcotest.(check int) "both edges" 2 (List.length r.Ck.Checker.edges);
  Alcotest.(check bool) "the cycle is still reported" false (Ck.Checker.ok r)

(* {1 Differential test against a brute-force reference} *)

let show_edge (a, b) = Txid.to_string a ^ "->" ^ Txid.to_string b

let show_cycle permitted ts =
  Printf.sprintf "%s %s"
    (if permitted then "permitted" else "strict")
    (String.concat " " (List.map Txid.to_string ts))

(* The checker's bookkeeping and graph, restated as plainly as possible:
   every pair of accesses is compared, and a cycle is a class of
   mutually reachable nodes in the transitive closure. Returns the
   committed/aborted/unresolved lists, the edges, and the cycles with
   their permitted flag, all as strings in the checker's report order. *)
let reference events =
  let outcome = Hashtbl.create 16 and begun = Hashtbl.create 16 in
  let nt = Hashtbl.create 16 and ops = ref [] in
  let nt_of k = Option.value ~default:Range_set.empty (Hashtbl.find_opt nt k) in
  List.iteri
    (fun i { Obs.ev; _ } ->
      let access (a : Obs.access) write =
        match a.owner with
        | Owner.Transaction t ->
            let relaxed = Range_set.overlaps a.range (nt_of (a.owner, a.fid)) in
            ops := (i, t, a.fid, a.range, write, relaxed) :: !ops
        | Owner.Process _ -> ()
      in
      match ev with
      | Obs.Begin { txid; _ } -> Hashtbl.replace begun txid ()
      | Obs.Commit { txid } | Obs.Abort { txid } ->
          if not (Hashtbl.mem outcome txid) then
            Hashtbl.replace outcome txid (match ev with Obs.Commit _ -> true | _ -> false)
      | Obs.Lock { owner; fid; range; non_transaction = true; _ } ->
          Hashtbl.replace nt (owner, fid) (Range_set.add range (nt_of (owner, fid)))
      | Obs.Unlock { owner; fid; range; _ } ->
          Hashtbl.replace nt (owner, fid) (Range_set.remove range (nt_of (owner, fid)))
      | Obs.Read a | Obs.Replica_read { access = a; _ } -> access a false
      | Obs.Write a -> access a true
      | _ -> ())
    events;
  let committed t = Hashtbl.find_opt outcome t = Some true in
  let nodes =
    List.sort Txid.compare (Hashtbl.fold (fun t c l -> if c then t :: l else l) outcome [])
  in
  let edges = Hashtbl.create 16 in
  List.iter
    (fun (i, ta, fa, ra, wa, xa) ->
      List.iter
        (fun (j, tb, fb, rb, wb, xb) ->
          if i < j && File_id.equal fa fb && Byte_range.overlaps ra rb && (wa || wb)
             && (not (Txid.equal ta tb)) && committed ta && committed tb
          then
            Hashtbl.replace edges (ta, tb)
              (((not xa) && not xb) || Hashtbl.find_opt edges (ta, tb) = Some true))
        !ops)
    !ops;
  let cycles ~strict_only =
    let r = Hashtbl.create 16 in
    Hashtbl.iter (fun e s -> if s || not strict_only then Hashtbl.replace r e ()) edges;
    List.iter
      (fun k ->
        List.iter
          (fun i ->
            if Hashtbl.mem r (i, k) then
              List.iter (fun j -> if Hashtbl.mem r (k, j) then Hashtbl.replace r (i, j) ()) nodes)
          nodes)
      nodes;
    List.filter_map
      (fun a ->
        if Hashtbl.mem r (a, a) then
          Some (List.filter (fun b -> Hashtbl.mem r (a, b) && Hashtbl.mem r (b, a)) nodes)
        else None)
      nodes
    |> List.sort_uniq (List.compare Txid.compare)
  in
  let strict = cycles ~strict_only:true and all = cycles ~strict_only:false in
  let begun = List.sort Txid.compare (Hashtbl.fold (fun t () l -> t :: l) begun []) in
  let with_outcome o = List.filter (fun t -> Hashtbl.find_opt outcome t = o) begun in
  ( List.map Txid.to_string (with_outcome (Some true)),
    List.map Txid.to_string (with_outcome (Some false)),
    List.map Txid.to_string (with_outcome None),
    List.map show_edge
      (List.sort compare (Hashtbl.fold (fun e _ l -> e :: l) edges [])),
    List.map (show_cycle false) strict
    @ List.filter_map
        (fun c -> if List.mem c strict then None else Some (show_cycle true c))
        all )

(* Compare the checker with the reference on one history, report order
   included; returns the cycles, so callers can insist on real ones. *)
let differential name h =
  let r = Ck.Checker.check h in
  let c, a, u, e, cyc = reference (Ck.History.events h) in
  let strs = List.map Txid.to_string in
  let chk what = Alcotest.(check (list string)) (name ^ ": " ^ what) in
  chk "committed" c (strs r.Ck.Checker.committed);
  chk "aborted" a (strs r.Ck.Checker.aborted);
  chk "unresolved" u (strs r.Ck.Checker.unresolved);
  chk "edges, sorted" e (List.map show_edge r.Ck.Checker.edges);
  chk "cycles, sorted" cyc
    (List.filter_map
       (fun cl ->
         match cl.Ck.Checker.violation with
         | Ck.Checker.Cycle ts -> Some (show_cycle cl.Ck.Checker.permitted ts)
         | Ck.Checker.Dirty_read _ | Ck.Checker.Stale_read _
         | Ck.Checker.Fenced_grant _ | Ck.Checker.Dup_apply _ -> None)
       r.Ck.Checker.violations);
  cyc

(* Random fabricated histories over two files: ranges of unequal length
   that overlap in every way, §3.4 non-transaction locks taken and
   released, a process writer, and Begin/Commit/Abort in any order —
   including outcomes with no Begin and Begins with no outcome. *)
let random_history seed =
  let rs = Random.State.make [| seed |] in
  let pick n = Random.State.int rs n in
  let fids = [| fid; File_id.make ~vid:1 ~ino:8 |] in
  List.init 60 (fun at ->
      let t = txid (pick 6) and f = fids.(pick 2) in
      let o = if pick 10 = 0 then Owner.Process (p 9) else Owner.Transaction t in
      let lo = pick 48 in
      let range = br lo (lo + 1 + pick 24) in
      let a = { Obs.owner = o; pid = p 1; fid = f; range; data = "" } in
      ev at
        (match pick 12 with
        | 0 -> Obs.Begin { txid = t; pid = p 1 }
        | 1 -> Obs.Commit { txid = t }
        | 2 -> Obs.Abort { txid = t }
        | 3 ->
            Obs.Lock
              { owner = o; pid = p 1; fid = f; range; mode = M.Exclusive;
                non_transaction = true }
        | 4 -> Obs.Unlock { owner = o; pid = p 1; fid = f; range }
        | k when k < 8 -> Obs.Read a
        | _ -> Obs.Write a))
  |> fun evs ->
  (* settle most transactions at the end, so the graph is not empty *)
  Ck.History.of_events
    (evs @ List.init 5 (fun k -> ev (60 + k) (Obs.Commit { txid = txid k })))

let test_differential_fabricated () =
  let t1 = txid 1 and t2 = txid 2 and t3 = txid 3 and t4 = txid 4 in
  let o1 = Owner.Transaction t1 and o2 = Owner.Transaction t2 in
  let o3 = Owner.Transaction t3 and o4 = Owner.Transaction t4 in
  let begins = List.map (fun t -> ev 0 (Obs.Begin { txid = t; pid = p 1 })) [ t1; t2; t3; t4 ] in
  let nt_lock o range =
    Obs.Lock { owner = o; pid = p 1; fid; range; mode = M.Exclusive; non_transaction = true }
  in
  let fixed =
    [ ( "unequal ranges",
        (* t1 -> t2 and t2 -> t1 through partial overlaps, t3's long write
           spanning both, t4 aborted *)
        [ ev 1 (Obs.Read (acc o1 (p 1) (br 0 40)));
          ev 2 (Obs.Write (acc o2 (p 2) (br 30 50)));
          ev 3 (Obs.Write (acc o4 (p 4) (br 0 10)));
          ev 4 (Obs.Read (acc o2 (p 2) (br 60 64)));
          ev 5 (Obs.Write (acc o1 (p 1) (br 62 70)));
          ev 6 (Obs.Write (acc o3 (p 3) (br 5 100)));
          ev 7 (Obs.Abort { txid = t4 });
          ev 8 (Obs.Commit { txid = t1 });
          ev 9 (Obs.Commit { txid = t2 });
          ev 10 (Obs.Commit { txid = t3 }) ] );
      ( "relaxed (3.4) cycle",
        (* t1's edge to t2 is relaxed, t2's edge back is strict: the
           cycle exists only with the permitted edge *)
        [ ev 1 (nt_lock o1 (br 0 16));
          ev 2 (Obs.Write (acc o1 (p 1) (br 0 16)));
          ev 3 (Obs.Read (acc o2 (p 2) (br 0 16)));
          ev 4 (Obs.Write (acc o2 (p 2) (br 16 32)));
          ev 5 (Obs.Read (acc o1 (p 1) (br 20 24)));
          ev 6 (Obs.Commit { txid = t2 });
          ev 7 (Obs.Commit { txid = t1 }) ] );
      ( "process writer",
        [ ev 1 (Obs.Write (acc (Owner.Process (p 9)) (p 9) (br 0 16)));
          ev 2 (Obs.Read (acc o1 (p 1) (br 8 24)));
          ev 3 (Obs.Write (acc (Owner.Process (p 9)) (p 9) (br 0 32)));
          ev 4 (Obs.Write (acc o2 (p 2) (br 12 14)));
          ev 5 (Obs.Commit { txid = t1 });
          ev 6 (Obs.Commit { txid = t2 }) ] ) ]
  in
  let cycles =
    List.map (fun (name, evs) -> differential name (Ck.History.of_events (begins @ evs))) fixed
  in
  Alcotest.(check (list (list string))) "fixed histories' cycles"
    [ [ "strict 0.1.1 0.1.2" ]; [ "permitted 0.1.1 0.1.2" ]; [] ]
    cycles;
  let random =
    List.concat
      (List.init 200 (fun s -> differential (Printf.sprintf "random %d" s) (random_history s)))
  in
  let has kind = List.exists (String.starts_with ~prefix:kind) random in
  Alcotest.(check bool) "random histories include strict cycles" true (has "strict");
  Alcotest.(check bool) "and permitted-only ones" true (has "permitted")

let test_differential_explored () =
  let module E = Ck.Explore in
  let open_loop = { E.default_config with E.sites = 3; txns = 24; arrival = Some 50. } in
  let run cfg =
    List.concat_map
      (fun seed ->
        let _, h, _, _ = E.run_seed cfg seed in
        differential (Printf.sprintf "seed %d" seed) h)
      (E.seeds ~n:10 ~from:0)
  in
  ignore (run E.default_config @ run open_loop);
  Mutant.(with_armed [ Locks ]) @@ fun () ->
  let broken = run E.default_config @ run open_loop in
  Alcotest.(check bool) "broken locks produce real cycles" true (broken <> [])

(* {1 Explorer + shrinker self-test} *)

let test_broken_matrix_caught () =
  Mutant.(with_armed [ Locks ]) @@ fun () ->
  let module E = Ck.Explore in
  let r = E.sweep ~seeds:(E.seeds ~n:10 ~from:0) () in
  match r.E.failures with
  | [] -> Alcotest.fail "injected Figure-1 bug not caught"
  | f :: _ ->
    let small = E.shrink_failure E.default_config f in
    Alcotest.(check bool) "shrunk to <= 3 transactions" true
      (List.length small.Ck.Workload.txns <= 3);
    let hist, _ = Ck.Workload.run ~seed:f.E.f_seed small in
    Alcotest.(check bool) "shrunk reproducer still fails" false
      (Ck.Checker.ok (Ck.Checker.check hist))

let suite =
  [
    ( "check.recorder",
      [ Alcotest.test_case "captures kernel events" `Quick test_recorder_attach ] );
    ( "check.checker",
      [
        Alcotest.test_case "serializable sweep passes" `Quick test_serializable_sweep;
        Alcotest.test_case "crash-injected sweep passes" `Quick test_crashy_sweep;
        Alcotest.test_case "replicated faulty sweep passes" `Quick
          test_replicated_sweep;
        Alcotest.test_case "dirty read detected" `Quick test_dirty_read_detected;
        Alcotest.test_case "conflict cycle detected" `Quick test_cycle_detected;
        Alcotest.test_case "non-transaction lock permitted (3.4)" `Quick
          test_non_transaction_lock_permitted;
        Alcotest.test_case "process writer permitted" `Quick
          test_process_writer_permitted;
        Alcotest.test_case "commit without begin joins the graph" `Quick
          test_commit_without_begin;
        Alcotest.test_case "differential: fabricated histories" `Quick
          test_differential_fabricated;
        Alcotest.test_case "differential: explored histories" `Quick
          test_differential_explored;
      ] );
    ( "check.explorer",
      [
        Alcotest.test_case "broken lock matrix caught and shrunk" `Quick
          test_broken_matrix_caught;
      ] );
  ]
