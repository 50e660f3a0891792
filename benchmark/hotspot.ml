(* [hotspot]: a closed loop of clients over a few dozen hot records. Each
   client issues a transaction, waits for its process to exit, then
   issues the next, until the run's virtual window closes. Updates
   dominate and a third of the ops cross sites, so lock waits, deadlock
   scans, aborts and multi-site commits are what it measures. A run is
   several independent clusters, their samples pooled, so that the
   contention dynamics of one seed do not set the host cost. *)

module L = Locus_core.Locus
module K = Locus_core.Kernel
module Engine = Locus_sim.Engine
module Prng = Locus_sim.Prng

let shape =
  { Client.sites = 3; records = 8; stride = Client.rec_len; zipf_s = 0.0; read_frac = 0.2; ops_min = 2;
    ops_max = 4; remote_frac = 1. /. 3. }

let clients = 32
let clusters = 8
let window_us = 300_000_000

(* Enough transactions per client for the window: a client that runs out
   simply stops early, deterministically. *)
let per_client = 64

let gen ~seed ~cluster =
  let zipf = Locus_load.Zipf.create ~s:shape.Client.zipf_s ~n:shape.Client.records () in
  Array.init clients (fun i ->
      let prng = Prng.create ~seed:((seed * 7919) + (1000 * (cluster + 1)) + i) in
      Array.init per_client (fun _ -> Client.gen_txn shape prng zipf))

let run ~traced tr layers ~trace txns sim =
  let cl = sim.L.cluster in
  let eng = K.engine cl in
  let epoch = Engine.now eng in
  let recs = ref [] in
  Array.iter
    (fun mine ->
      ignore
        (Engine.spawn ~name:"bench-client" eng (fun () ->
             let rec loop k =
               if k < per_client && Engine.now eng < epoch + window_us then begin
                 let r = Client.record mine.(k) ~due:(Engine.now eng) in
                 recs := r :: !recs;
                 Client.run_txn ~traced ~shape cl r;
                 loop (k + 1)
               end
             in
             loop 0)))
    txns;
  Span.host tr ~trace "check.sim" (fun () -> L.run sim);
  let recs = List.rev !recs in
  let failures = Span.host tr ~trace "check.checker" (fun () -> Client.check sim shape recs) in
  Layers.add_sim layers sim;
  (match tr with Some sp -> Client.add_spans sp recs | None -> ());
  (recs, failures)

let setup ~seed tr =
  let sites = shape.Client.sites in
  let prepared =
    List.init clusters (fun i ->
        let trace = i + 1 in
        let txns = Span.host tr ~trace "check.gen" (fun () -> gen ~seed ~cluster:i) in
        let sim = Span.host tr ~trace "check.build" (fun () -> Client.make_cluster ~seed ~sites) in
        Span.host tr ~trace "check.init" (fun () -> Client.init_data sim shape);
        (trace, txns, sim))
  in
  fun tr ->
    let traced = tr <> None in
    let layers = Layers.create () in
    let results =
      List.map (fun (trace, txns, sim) -> run ~traced tr layers ~trace txns sim) prepared
    in
    let recs = List.concat_map fst results in
    let count p = List.length (List.filter p recs) in
    let committed = count (fun r -> r.Client.outcome = Client.Committed) in
    let aborted = count (fun r -> r.Client.outcome = Client.Aborted) in
    let spans = match tr with Some sp -> Span.spans sp | None -> [] in
    let open Metric in
    {
      Work.rows =
        percentile_rows "sojourn" (Client.sojourns recs)
        @ [ row Virtual "1/s" "committed_per_s"
              (ratio (fi committed) (fi (clusters * window_us) /. 1e6));
            row Virtual "ratio" "failed_frac" (ratio (fi aborted) (fi (List.length recs))) ];
      layer_rows = (if traced then Work.ledger_rows spans ~commits:committed else []);
      committed;
      schedules = clusters;
      checks = clusters;
      failures = List.concat_map snd results @ Work.ledger_failures spans;
      layers;
    }

let workload = { Work.name = "hotspot"; setup; crosscheck = Work.no_crosscheck }
