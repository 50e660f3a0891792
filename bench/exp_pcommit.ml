(* E17 — the price of non-blocking atomic commitment.

   The e16 cohort (eight concurrent writers at site 0, each committing an
   update to its own file stored at site 1) run under plain 2PC and under
   Paxos Commit with f = 1 (acceptors at sites 0-2), with and without the
   commit-path batching window. Paxos Commit buys the liveness property
   the checker asserts — a killed coordinator cannot block participants —
   and pays for it in Vote_2a fan-out: every participant's vote travels
   to 2f+1 acceptors and is force-logged there before it counts. The
   batching rows show how much of that fan-out the RPC coalescing window
   absorbs (the votes ride the same hot path as prepares and phase 2).

   Per row the JSON carries commits, total messages, msgs/commit and the
   p50 of the coordinator's decide phase (commit.decide_us), so the gate
   can hold both protocols to their baselines. *)

open Harness

let n_writers = 8
let rec_len = 64
let windows = [ 0; 500 ]

type sample = {
  label : string;
  commits : int;
  msgs : int;
  log_forces : int;
  decide_p50_us : int;
  latencies : int list;
  span_us : int;
}

let run_once ~paxos ~window =
  let sites = 3 in
  let base = K.Config.default ~n_sites:sites in
  let config = if paxos then K.Config.with_paxos ~f:1 base else base in
  let config =
    if window > 0 then K.Config.with_batching ~window_us:window config
    else config
  in
  let sim = fresh ~config ~n_sites:sites () in
  let cl = sim.L.cluster in
  let committed = ref 0 in
  let lats = ref [] in
  let msgs0 = ref 0 and logs0 = ref 0 in
  let t_start = ref 0 and t_end = ref 0 in
  let file i = Printf.sprintf "/pc/w%d" i in
  let e = K.engine cl in
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
        Api.wait_pid w setup_pid;
        let c = Api.open_file w (file i) in
        ignore (Api.pread w c ~pos:0 ~len:rec_len);
        Engine.sleep (wake_at - L.Engine.now e);
        let t0 = L.Engine.now e in
        Api.begin_trans w;
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
  ignore
    (Api.spawn_process cl ~site:0 ~name:"monitor" (fun env ->
         Engine.sleep (wake_at - 1_000 - L.Engine.now e);
         msgs0 := L.Stats.get (stats sim) "net.msg";
         let _, _, logs = io_counts sim in
         logs0 := logs;
         t_start := L.Engine.now e;
         List.iter (Api.wait_pid env) pids;
         t_end := L.Engine.now e));
  L.run sim;
  let _, _, logs1 = io_counts sim in
  let decide_p50 =
    match L.Stats.histogram (stats sim) "commit.decide_us" with
    | Some h -> L.Stats.Hist.quantile h 50
    | None -> 0
  in
  {
    label =
      Printf.sprintf "%s window %d"
        (if paxos then "paxos f=1" else "2pc")
        window;
    commits = !committed;
    msgs = L.Stats.get (stats sim) "net.msg" - !msgs0;
    log_forces = logs1 - !logs0;
    decide_p50_us = decide_p50;
    latencies = List.rev !lats;
    span_us = !t_end - !t_start;
  }

let e17 () =
  let samples =
    List.concat_map
      (fun window ->
        [ run_once ~paxos:false ~window; run_once ~paxos:true ~window ])
      windows
  in
  let per_commit v s =
    if s.commits = 0 then 0. else float_of_int v /. float_of_int s.commits
  in
  Tables.print_table
    ~title:
      (Printf.sprintf
         "E17: 2PC vs Paxos Commit f=1 (%d writers, 3 sites)" n_writers)
    ~columns:
      [ "case"; "commits"; "msgs"; "msgs/commit"; "log forces";
        "decide p50"; "commit p50" ]
    (List.map
       (fun s ->
         [
           s.label;
           string_of_int s.commits;
           string_of_int s.msgs;
           Printf.sprintf "%.1f" (per_commit s.msgs s);
           string_of_int s.log_forces;
           Tables.ms s.decide_p50_us;
           Tables.ms (Jsonout.percentile s.latencies 50.);
         ])
       samples);
  let metrics =
    List.map
      (fun s ->
        Jsonout.metric
          ~extras:
            [
              ("commits", float_of_int s.commits);
              ("msgs", float_of_int s.msgs);
              ("msgs_per_commit", per_commit s.msgs s);
              ("log_forces", float_of_int s.log_forces);
              ("decide_p50_us", float_of_int s.decide_p50_us);
            ]
          ~label:s.label ~span_us:s.span_us s.latencies)
      samples
  in
  Gate.publish ~exp:"e17" metrics;
  Tables.paper
    "not in the paper: Paxos Commit (Gray & Lamport 2004) replaces the \
     paper's blocking 2PC decision; same prepare and phase-2 mechanics, \
     decision learnable from any acceptor quorum"
