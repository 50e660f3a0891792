(* E19 — the price of a lossy network (locus_chaos).

   The same remote record-commit workload as E4's remote case, run with
   the chaos layer armed at increasing drop rates: every wire leg may be
   dropped or duplicated, and messages reorder within a 2-latency
   window. The table prices what loss costs the commit path — latency
   percentiles stretched by retry timeouts, extra messages from retries
   and duplicates — and proves exactly-once held: every run lands the
   same number of commits, and at non-zero rates the server reply
   caches must show hits (a retried request whose original executed,
   answered without re-running the handler).

   The retry timeout dominates lossy latency, so this experiment runs
   with a 2 s RPC timeout instead of the default 30 s — the knob a real
   deployment would turn first (HACKING.md, chaos knobs). *)

open Harness

let n_commits = 40
let record_bytes = 100
let rpc_timeout_us = 2_000_000

let claims =
  [
    Gate.versus "lossy runs land all the clean run's commits" "drop" ~reference:"clean"
      "commits" ( = );
    Gate.claim "lossy runs inject faults"
      (Gate.each "drop" (fun r ->
           let f = Gate.field r "drops" +. Gate.field r "dups" in
           Gate.verdict (f >= 1.) "%g drops+dups" f));
    Gate.at_least "drop" "dedup_hits" 1.;
    Gate.versus "lossy runs cost more messages per commit" "drop" ~reference:"clean"
      "msgs_per_commit" ( > );
  ]

type sample = {
  label : string;
  latencies : int list;
  span_us : int;
  msgs : int;
  retries : int;
  drops : int;
  dups : int;
  dedup_hits : int;
  commits : int;
}

let run_once ~drop ~label =
  let config =
    {
      (K.Config.with_net_faults ~drop ~dup:drop ~reorder:2
         (K.Config.default ~n_sites:2))
      with K.Config.rpc_timeout_us;
    }
  in
  let sim = fresh ~config ~n_sites:2 () in
  let lats = ref [] and commits = ref 0 in
  let t_start = ref 0 and t_end = ref 0 and msg0 = ref 0 in
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 ~name:"writer" (fun env ->
         let e = K.engine (Api.cluster env) in
         (* Remote volume: every write, lock and commit crosses the
            (lossy) wire. *)
         let c = Api.creat env "/chaos" ~vid:1 in
         Api.write_string env c (String.make record_bytes 'i');
         Api.commit_file env c;
         msg0 := L.Stats.get (stats sim) "net.msg";
         t_start := L.Engine.now e;
         for i = 1 to n_commits do
           Api.pwrite env c ~pos:0 (Bytes.make record_bytes (Char.chr (64 + (i mod 26))));
           let t0 = L.Engine.now e in
           Api.commit_file env c;
           lats := (L.Engine.now e - t0) :: !lats;
           incr commits
         done;
         t_end := L.Engine.now e;
         Api.close env c));
  L.run sim;
  {
    label;
    latencies = List.rev !lats;
    span_us = !t_end - !t_start;
    msgs = L.Stats.get (stats sim) "net.msg" - !msg0;
    retries = L.Stats.get (stats sim) "net.retries";
    drops = L.Stats.get (stats sim) "net.drop";
    dups = L.Stats.get (stats sim) "net.dup";
    dedup_hits = L.Stats.get (stats sim) "net.dedup_hits";
    commits = !commits;
  }

let e19 () =
  let samples =
    [
      run_once ~drop:0.0 ~label:"clean (chaos armed, 0%)";
      run_once ~drop:0.01 ~label:"drop 1%";
      run_once ~drop:0.05 ~label:"drop 5%";
    ]
  in
  let per s n = float_of_int n /. float_of_int (max 1 s.commits) in
  Tables.print_table
    ~title:
      (Printf.sprintf
         "E19: remote record commit over a lossy network (%d commits)"
         n_commits)
    ~columns:
      [ "case"; "commits"; "p50"; "p99"; "msgs/commit"; "retries/commit";
        "drop+dup"; "dedup hits" ]
    (List.map
       (fun s ->
         [
           s.label;
           string_of_int s.commits;
           Tables.ms (Jsonout.percentile s.latencies 50.);
           Tables.ms (Jsonout.percentile s.latencies 99.);
           Printf.sprintf "%.1f" (per s s.msgs);
           Printf.sprintf "%.2f" (per s s.retries);
           string_of_int (s.drops + s.dups);
           string_of_int s.dedup_hits;
         ])
       samples);
  Gate.publish ~exp:"e19" ~claims
    (List.map
       (fun s ->
         Jsonout.metric
           ~extras:
             [
               ("commits", float_of_int s.commits);
               ("msgs_per_commit", per s s.msgs);
               ("retries_per_commit", per s s.retries);
               ("drops", float_of_int s.drops);
               ("dups", float_of_int s.dups);
               ("dedup_hits", float_of_int s.dedup_hits);
             ]
           ~label:s.label ~span_us:s.span_us s.latencies)
       samples);
  Tables.paper
    "not in the paper: the kernel protocol is a datagram protocol \
     [Popek81], so loss is its normal case — E19 prices the retry + \
     exactly-once machinery that keeps record commit correct when the \
     wire misbehaves"
