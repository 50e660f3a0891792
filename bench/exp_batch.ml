(* E16 — group commit + RPC batching on the 2PC hot path.

   Eight concurrent writer transactions at site 0 each update their own
   replicated file stored at site 1 (factor 2, so phase-2 commit also
   propagates deltas to a secondary). One file per writer keeps the
   filestore's per-file commit gate out of the measurement — the point
   is concurrent independent commits, the workload group commit exists
   for. With the batch window
   at 0 every committing transaction forces the coordinator log and the
   participant's prepare log individually and every prepare / phase-2 /
   replica-delta message travels alone; with a non-zero window
   concurrent forces on the same volume share one platter write and
   same-destination messages coalesce into one [Msg.Batch].

   The JSON row per window carries the raw counters (coordinator-log
   forces, total messages, commits) as extras, so scripts/bench_gate.sh
   can assert the headline ratios: >= 2x fewer coordinator-log forces
   and >= 1.5x fewer per-commit messages than window 0.

   LOCUS_BREAK=batch disables all three optimisations at run time
   (Mutant.Batch) while leaving the windows configured: the CI gate runs
   e16 once with the mutant armed to prove the ratio check actually
   fires. *)

open Harness

let n_writers = 8
let rec_len = 64
let windows = [ 0; 200; 500; 2000 ]

type sample = {
  window : int;
  commits : int;
  coord_forces : int;  (** log writes on site 0's volume: coordinator log *)
  total_log_forces : int;  (** log writes across every volume *)
  msgs : int;
  latencies : int list;
  span_us : int;
}

let run_once ~window =
  let sites = 3 in
  let base = K.Config.with_replication ~n_sites:sites ~factor:2 in
  let config =
    if window > 0 then K.Config.with_batching ~window_us:window base else base
  in
  let sim = fresh ~config ~n_sites:sites () in
  let cl = sim.L.cluster in
  (* Site 0's copy of volume 0 holds no file data in this layout, so its
     log-write counter isolates the coordinator log. *)
  let coord_vol =
    List.find
      (fun v -> Locus_disk.Volume.vid v = 0)
      (Locus_fs.Filestore.volumes (K.filestore (K.kernel cl 0)))
  in
  let committed = ref 0 in
  let lats = ref [] in
  let msgs0 = ref 0 and coord0 = ref 0 and logs0 = ref 0 in
  let t_start = ref 0 and t_end = ref 0 in
  let file i = Printf.sprintf "/batch/w%d" i in
  let e = K.engine cl in
  (* The writers are independent top-level processes parked until a
     common virtual instant, not children forked in a loop: sequential
     forks would stagger their starts by the fork cost and keep the
     whole cohort spaced wider than any realistic window forever. *)
  let wake_at = 5_000_000 in
  let setup_pid =
    Api.spawn_process cl ~site:0 ~name:"setup" (fun env ->
        List.init n_writers Fun.id
        |> List.iter (fun i ->
               let c = Api.creat env (file i) ~vid:1 in
               Api.write_string env c (String.make rec_len 'i');
               Api.commit_file env c;
               Api.close env c))
  in
  let writer i =
    Api.spawn_process cl ~site:0 ~name:(Printf.sprintf "w%d" i) (fun w ->
        (* Open and warm up before the barrier: path resolution and the
           first read pay serialized disk I/O at the storage site, which
           would otherwise stagger the cohort. The measured transaction
           then runs against a warm cache — the hot path. *)
        Api.wait_pid w setup_pid;
        let c = Api.open_file w (file i) in
        ignore (Api.pread w c ~pos:0 ~len:rec_len);
        Engine.sleep (wake_at - L.Engine.now e);
        let t0 = L.Engine.now e in
        Api.begin_trans w;
        (* The read path is part of the feature under test: batched runs
           take the piggybacked one-round-trip read, the window-0
           baseline the explicit lock-then-read protocol of today. *)
        if window > 0 then ignore (Api.pread_locked w c ~pos:0 ~len:rec_len)
        else begin
          Api.seek w c ~pos:0;
          (match Api.lock w c ~len:rec_len ~mode:M.Shared () with
          | Api.Granted -> ()
          | Api.Conflict _ -> ());
          ignore (Api.pread w c ~pos:0 ~len:rec_len)
        end;
        Api.seek w c ~pos:0;
        (match Api.lock w c ~len:rec_len ~mode:M.Exclusive () with
        | Api.Granted -> ()
        | Api.Conflict _ -> ());
        Api.pwrite w c ~pos:0 (Bytes.make rec_len 'u');
        (match Api.end_trans w with
        | K.Committed -> incr committed
        | K.Aborted -> ());
        lats := (L.Engine.now e - t0) :: !lats;
        Api.close w c)
  in
  let pids = List.init n_writers writer in
  (* Snapshot the counters just before the cohort wakes (setup's replica
     propagation has long drained), and close the span when the last
     writer exits. *)
  ignore
    (Api.spawn_process cl ~site:0 ~name:"monitor" (fun env ->
         Engine.sleep (wake_at - 1_000 - L.Engine.now e);
         msgs0 := L.Stats.get (stats sim) "net.msg";
         coord0 := Locus_disk.Volume.io_log_writes coord_vol;
         let _, _, logs = io_counts sim in
         logs0 := logs;
         t_start := L.Engine.now e;
         List.iter (Api.wait_pid env) pids;
         t_end := L.Engine.now e));
  L.run sim;
  let _, _, logs1 = io_counts sim in
  {
    window;
    commits = !committed;
    coord_forces = Locus_disk.Volume.io_log_writes coord_vol - !coord0;
    total_log_forces = logs1 - !logs0;
    msgs = L.Stats.get (stats sim) "net.msg" - !msgs0;
    latencies = List.rev !lats;
    span_us = !t_end - !t_start;
  }

let e16 () =
  let samples = List.map (fun window -> run_once ~window) windows in
  let per_commit v s =
    if s.commits = 0 then 0. else float_of_int v /. float_of_int s.commits
  in
  let rows =
    List.map
      (fun s ->
        [
          (if s.window = 0 then "window 0 (off)"
           else Printf.sprintf "window %d us" s.window);
          string_of_int s.commits;
          string_of_int s.coord_forces;
          string_of_int s.total_log_forces;
          string_of_int s.msgs;
          Printf.sprintf "%.1f" (per_commit s.msgs s);
          Tables.ms (Jsonout.percentile s.latencies 50.);
        ])
      samples
  in
  Tables.print_table
    ~title:
      (Printf.sprintf
         "E16: group commit + RPC batching (%d writers, 3 sites, 2 replicas)"
         n_writers)
    ~columns:
      [ "batch window"; "commits"; "coord forces"; "log forces"; "msgs";
        "msgs/commit"; "p50 latency" ]
    rows;
  let metrics =
    List.map
      (fun s ->
        Jsonout.metric
          ~extras:
            [
              ("window_us", float_of_int s.window);
              ("commits", float_of_int s.commits);
              ("coord_forces", float_of_int s.coord_forces);
              ("total_log_forces", float_of_int s.total_log_forces);
              ("msgs", float_of_int s.msgs);
              ("msgs_per_commit", per_commit s.msgs s);
            ]
          ~label:
            (if s.window = 0 then "window 0 (off)"
             else Printf.sprintf "window %d us" s.window)
          ~span_us:s.span_us s.latencies)
      samples
  in
  Jsonout.write ~exp:"e16" metrics;
  Tables.paper
    "not in the paper: batching is a post-hoc optimisation of the \
     reproduction's 2PC hot path; the paper's protocol semantics (forces \
     before replies, commit point at the decision record) are preserved"
