(* locus_chaos: the exactly-once reply cache. These drive the wire entry
   point directly with hand-built rid-tagged envelopes, playing a client
   whose retries produce duplicate wire copies — the server must execute
   once and answer every copy. *)

module L = Locus_core.Locus
module K = L.Kernel
module Msg = L.Msg
module T = Locus_net.Transport

let stats sim = Stats.get (L.Engine.stats sim.L.engine)

(* A rid claiming to come from site 0's current incarnation. *)
let rid ~seq ~ack = { Msg.r_site = 0; r_inc = 1; r_seq = seq; r_ack = ack }

let fid_of = function
  | Some (Ok (Msg.R_fid f)) -> f
  | _ -> Alcotest.fail "expected R_fid"

let test_duplicate_answered_from_cache () =
  (* Two wire copies of one logical request: the handler (file creation —
     visibly non-idempotent) runs once; the second copy is answered with
     the cached reply, bit-for-bit. *)
  let sim = L.make ~n_sites:2 () in
  let net = K.transport sim.L.cluster in
  let r1 = ref None and r2 = ref None in
  let env = Msg.envelope ~rid:(rid ~seq:1 ~ack:0) (Msg.Create_file { vid = 1 }) in
  ignore
    (L.Engine.spawn sim.L.engine (fun () ->
         r1 := Some (T.rpc net ~src:0 ~dst:1 env);
         r2 := Some (T.rpc net ~src:0 ~dst:1 env)));
  L.run sim;
  let f1 = fid_of !r1 and f2 = fid_of !r2 in
  Alcotest.(check bool) "same fid, not a second file" true (File_id.equal f1 f2);
  Alcotest.(check int) "one cache hit" 1 (stats sim "net.dedup_hits");
  Alcotest.(check int) "one completed entry cached" 1
    (K.dedup_cached (K.kernel sim.L.cluster 1))

let test_watermark_evicts_and_fences () =
  (* The client's ack watermark rides every rid: seq 2 carrying ack=1
     evicts seq 1's cache entry, and a late wire copy of seq 1 is fenced
     as stale instead of re-executing the (non-idempotent) handler. *)
  let sim = L.make ~n_sites:2 () in
  let net = K.transport sim.L.cluster in
  let late = ref None in
  let env1 = Msg.envelope ~rid:(rid ~seq:1 ~ack:0) (Msg.Create_file { vid = 1 }) in
  let env2 = Msg.envelope ~rid:(rid ~seq:2 ~ack:1) (Msg.Create_file { vid = 1 }) in
  ignore
    (L.Engine.spawn sim.L.engine (fun () ->
         ignore (T.rpc net ~src:0 ~dst:1 env1);
         Alcotest.(check int) "seq 1 cached" 1
           (K.dedup_cached (K.kernel sim.L.cluster 1));
         ignore (T.rpc net ~src:0 ~dst:1 env2);
         Alcotest.(check int) "seq 1 evicted by the ack watermark" 1
           (K.dedup_cached (K.kernel sim.L.cluster 1));
         late := Some (T.rpc net ~src:0 ~dst:1 env1)));
  L.run sim;
  (match !late with
  | Some (Ok (Msg.R_err _)) -> ()
  | _ -> Alcotest.fail "expected the late copy fenced with R_err");
  Alcotest.(check int) "fence counted" 1 (stats sim "net.dedup_stale")

let test_client_crash_clears_cache () =
  (* A crash announcement for the client site purges its reply-cache
     entries and watermark everywhere: the next incarnation is a fresh id
     space, so nothing of the old one can be needed. *)
  let sim = L.make ~n_sites:3 () in
  let cl = sim.L.cluster in
  let net = K.transport cl in
  ignore
    (L.Engine.spawn sim.L.engine (fun () ->
         ignore
           (T.rpc net ~src:2 ~dst:1
              (Msg.envelope ~rid:(rid ~seq:1 ~ack:0) (Msg.Create_file { vid = 1 })))));
  L.run sim;
  Alcotest.(check int) "entry cached" 1 (K.dedup_cached (K.kernel cl 1));
  K.crash_site cl 0;
  Alcotest.(check int) "crash announcement purged it" 0
    (K.dedup_cached (K.kernel cl 1))

(* The Dedup mutant against the duplicate-apply oracle, over the chaos
   CI lane's sweep shape: with the reply cache bypassed a lossy network
   must double-apply some non-idempotent request, and the same seeds must
   be clean with the cache in place. *)
let test_break_dedup_flags_dup_apply () =
  let module Ck = Locus_check.Checker in
  let module Ex = Locus_check.Explore in
  let cfg =
    {
      Ex.default_config with
      sites = 3;
      fault_every = Some 5;
      net_faults = Some { T.no_faults with drop = 0.05; dup = 0.05; reorder = 4 };
    }
  in
  let dup_applies () =
    List.filter
      (fun seed ->
        let _, _, report, _ = Ex.run_seed cfg seed in
        List.exists
          (fun c ->
            match c.Ck.violation with
            | Ck.Dup_apply _ -> not c.Ck.permitted
            | Ck.Dirty_read _ | Ck.Cycle _ | Ck.Stale_read _
            | Ck.Fenced_grant _ ->
              false)
          report.Ck.violations)
      (Ex.seeds ~n:5 ~from:42)
  in
  let r = Ex.sweep ~config:cfg ~seeds:(Ex.seeds ~n:5 ~from:42) () in
  Alcotest.(check (list int)) "seeds 42-46 clean with the reply cache" []
    (List.map (fun f -> f.Ex.f_seed) r.Ex.failures);
  Alcotest.(check bool) "bypassed reply cache caught as Dup_apply" true
    (Mutant.(with_armed [ Dedup ]) dup_applies <> [])

let suite =
  [
    ( "chaos.dedup",
      [
        Alcotest.test_case "duplicate answered from cache" `Quick
          test_duplicate_answered_from_cache;
        Alcotest.test_case "ack watermark evicts and fences" `Quick
          test_watermark_evicts_and_fences;
        Alcotest.test_case "client crash clears cache" `Quick
          test_client_crash_clears_cache;
        Alcotest.test_case "break-dedup flags duplicate apply" `Quick
          test_break_dedup_flags_dup_apply;
      ] );
  ]
