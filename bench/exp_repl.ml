(* E15 — §5.2 primary-copy replication: what replication buys reads and
   costs writes.

   Read fan-out: processes at every site hammer one committed file. With
   replication, a reader whose site hosts a secondary copy is served
   locally (no round trip to the primary); without, every remote reader
   pays the wire both ways. Commit cost: phase-2 propagation to the
   secondaries is synchronous, so each extra copy adds messages to the
   committer's critical path. *)

open Harness

let n_sites = 3
let readers_per_site = 2
let reads_each = 25
let commits = 20

let read_fanout ~factor =
  let config = K.Config.with_replication ~n_sites ~factor in
  let sim = fresh ~config ~n_sites () in
  let cl = sim.L.cluster in
  run_proc sim ~site:1 (fun env ->
      let c = Api.creat env "/hot" ~vid:1 in
      Api.write_string env c (String.make 4096 'd');
      Api.commit_file env c;
      Api.close env c);
  let lats = ref [] in
  let t0 = now sim in
  for r = 0 to (n_sites * readers_per_site) - 1 do
    ignore
      (Api.spawn_process cl ~site:(r mod n_sites)
         ~name:(Printf.sprintf "reader%d" r)
         (fun env ->
           let c = Api.open_file env "/hot" in
           let e = K.engine cl in
           for i = 0 to reads_each - 1 do
             let pos = 512 * ((i + r) mod 8) in
             let t = L.Engine.now e in
             ignore (Api.pread env c ~pos ~len:128);
             lats := (L.Engine.now e - t) :: !lats
           done;
           Api.close env c))
  done;
  L.run sim;
  let span = now sim - t0 in
  let local = L.Stats.get (stats sim) "replica.local_reads" in
  (!lats, span, local)

let commit_cost ~factor =
  let config = K.Config.with_replication ~n_sites ~factor in
  let sim = fresh ~config ~n_sites () in
  let otr = with_otrace sim in
  let lats = ref [] in
  (* Commit at the file's primary site so the measured latency is pure
     commit + propagation, with no client/primary wire in front. *)
  run_proc sim ~site:1 (fun env ->
      let c = Api.creat env "/paid" ~vid:1 in
      let e = K.engine (Api.cluster env) in
      for i = 1 to commits do
        Api.pwrite env c ~pos:(64 * (i mod 8)) (Bytes.make 64 'w');
        let t = L.Engine.now e in
        Api.commit_file env c;
        lats := (L.Engine.now e - t) :: !lats
      done;
      Api.close env c);
  (!lats, phase_breakdown otr)

let e15 () =
  let metrics = ref [] in
  let read_rows =
    List.map
      (fun factor ->
        let lats, span, local = read_fanout ~factor in
        let m =
          Jsonout.metric
            ~label:(Printf.sprintf "reads, %d copies" factor)
            ~span_us:span lats
        in
        metrics := m :: !metrics;
        [
          Tables.i factor;
          Tables.i m.Jsonout.samples;
          Tables.i local;
          Tables.ms m.Jsonout.p50_us;
          Tables.ms m.Jsonout.p99_us;
          Printf.sprintf "%.0f reads/s" m.Jsonout.ops_per_sec;
        ])
      [ 1; 2; 3 ]
  in
  Tables.print_table
    ~title:
      (Printf.sprintf
         "E15 / \xc2\xa75.2: read fan-out, %d readers x %d reads, one hot \
          file, 3 sites"
         (n_sites * readers_per_site) reads_each)
    ~columns:
      [ "copies"; "reads"; "served locally"; "p50"; "p99"; "throughput" ]
    read_rows;
  let commit_rows =
    List.map
      (fun factor ->
        let lats, phases = commit_cost ~factor in
        let span = List.fold_left ( + ) 0 lats in
        let m =
          Jsonout.metric ~phases
            ~label:(Printf.sprintf "commits, %d copies" factor)
            ~span_us:span lats
        in
        metrics := m :: !metrics;
        [
          Tables.i factor;
          Tables.ms m.Jsonout.p50_us;
          Tables.ms m.Jsonout.p99_us;
          Printf.sprintf "%.0f commits/s" m.Jsonout.ops_per_sec;
        ])
      [ 1; 2; 3 ]
  in
  Tables.print_table
    ~title:
      (Printf.sprintf
         "E15 / \xc2\xa75.2: record commit at the primary, %d sequential \
          commits, synchronous propagation"
         commits)
    ~columns:[ "copies"; "p50"; "p99"; "throughput" ]
    commit_rows;
  Gate.publish ~exp:"e15" (List.rev !metrics);
  Tables.paper
    "\xc2\xa75.2: reads may be served by any reachable copy while all \
     updates flow through the primary update site, which propagates \
     committed versions to the other copies"
