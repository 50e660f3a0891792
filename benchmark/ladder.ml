(* [ladder]: open-loop Poisson arrivals at fixed rates, from well below to
   just past the saturation knee. Every rung offers enough transactions
   for an exact p99. The reference rung, whose sojourn percentiles are the
   end-to-end figures, runs several independent clusters and pools their
   samples: one long run would grow the simulator's heap and its host cost
   superlinearly, and would make that cost swing with the seed. *)

module L = Locus_core.Locus
module K = Locus_core.Kernel
module Engine = Locus_sim.Engine
module Prng = Locus_sim.Prng

(* One record per 1 KiB page: with records packed into shared pages this
   mix loses committed increments on some seeds (see the README). *)
let shape =
  { Client.sites = 3; records = 100; stride = 1024; zipf_s = 1.0; read_frac = 0.8; ops_min = 2;
    ops_max = 4; remote_frac = 0.1 }

(* [(rate per virtual second, clusters, transactions offered to each)] *)
let rungs = [ (4., 1, 1500); (8., 8, 2000); (10., 1, 1500); (12., 1, 1500); (14., 1, 1500) ]
let reference = 8.
let p99_limit_us = 2_000_000
let min_completed = 0.98

let rung_name rate = Printf.sprintf "ladder.r%g" rate

(* [(offset from the arrival epoch, transaction)] for one cluster. *)
let gen ~seed ~cluster rate arrivals =
  let prng = Prng.create ~seed:((seed * 7919) + cluster) in
  let arr = Locus_load.Arrival.create ~prng (Locus_load.Arrival.constant rate) in
  let zipf = Locus_load.Zipf.create ~s:shape.Client.zipf_s ~n:shape.Client.records () in
  let rec go acc k at =
    if k = 0 then List.rev acc
    else
      let at = Locus_load.Arrival.next_after arr at in
      go ((at, Client.gen_txn shape prng zipf) :: acc) (k - 1) at
  in
  go [] arrivals 0

type rung = {
  rate : float;
  offered : int;
  committed : int;
  aborted : int;
  in_time : int;  (** committed within the p99 limit of the last arrival *)
  sojourns : int list;
  window_us : int;  (** arrival epoch to the last exit, summed over clusters *)
}

let run_cluster ~traced tr layers ~trace rate txns sim =
  let cl = sim.L.cluster in
  let eng = K.engine cl in
  let epoch = Engine.now eng in
  let recs =
    List.map
      (fun (at, txn) ->
        let r = Client.record txn ~due:(epoch + at) in
        Engine.schedule ~delay:at eng (fun () ->
            ignore
              (Engine.spawn ~name:"bench-client" eng (fun () ->
                   Client.run_txn ~traced ~shape cl r)));
        r)
      txns
  in
  Span.host tr ~trace "check.sim" (fun () -> L.run sim);
  let failures = Span.host tr ~trace "check.checker" (fun () -> Client.check sim shape recs) in
  Layers.add_sim layers sim;
  (match tr with Some sp -> Client.add_spans sp recs | None -> ());
  let last_due = List.fold_left (fun acc (at, _) -> max acc at) 0 txns + epoch in
  let count p = List.length (List.filter p recs) in
  let committed r = r.Client.outcome = Client.Committed in
  let last_exit = List.fold_left (fun acc r -> max acc r.Client.exited) last_due recs in
  ( {
      rate;
      offered = List.length recs;
      committed = count committed;
      aborted = count (fun r -> r.Client.outcome = Client.Aborted);
      in_time = count (fun r -> committed r && r.Client.exited <= last_due + p99_limit_us);
      sojourns = Client.sojourns recs;
      window_us = last_exit - epoch;
    },
    failures )

let pool a b =
  {
    a with
    offered = a.offered + b.offered;
    committed = a.committed + b.committed;
    aborted = a.aborted + b.aborted;
    in_time = a.in_time + b.in_time;
    sojourns = List.rev_append b.sojourns a.sojourns;
    window_us = a.window_us + b.window_us;
  }

let completed_frac r = Metric.ratio (Metric.fi r.in_time) (Metric.fi r.offered)
let p99 r = Metric.percentile (Metric.sorted_of_list r.sojourns) 99

(* The knee: the highest rung whose exact p99 sojourn is within the limit
   and that completed nearly all it was offered in time. *)
let knee rungs =
  List.fold_left
    (fun acc r ->
      match p99 r with
      | Some v when v <= p99_limit_us && completed_frac r >= min_completed -> Float.max acc r.rate
      | _ -> acc)
    0. rungs

let rows rungs =
  let open Metric in
  let per_rung =
    List.concat_map
      (fun r ->
        (match p99 r with
        | Some v ->
          [ row ~samples:(List.length r.sojourns) Virtual "ms"
              (rung_name r.rate ^ ".sojourn_p99_ms") (fi v /. 1000.) ]
        | None -> [])
        @ [ row Virtual "ratio" (rung_name r.rate ^ ".completed_frac") (completed_frac r) ])
      rungs
  in
  let ref_rung = List.find (fun r -> r.rate = reference) rungs in
  let offered = List.fold_left (fun acc r -> acc + r.offered) 0 rungs in
  let aborted = List.fold_left (fun acc r -> acc + r.aborted) 0 rungs in
  percentile_rows "sojourn" ref_rung.sojourns
  @ [ row Virtual "1/s" "committed_per_s"
        (ratio (fi ref_rung.committed) (fi ref_rung.window_us /. 1e6));
      row Virtual "1/s" "knee_txn_per_s" (knee rungs);
      row Virtual "ratio" "failed_frac" (ratio (fi aborted) (fi offered)) ]
  @ per_rung

let setup ~seed tr =
  let sites = shape.Client.sites in
  let clusters =
    List.concat_map
      (fun (rate, n, arrivals) -> List.init n (fun _ -> (rate, arrivals)))
      rungs
  in
  let prepared =
    List.mapi
      (fun i (rate, arrivals) ->
        let trace = i + 1 in
        let txns =
          Span.host tr ~trace "check.gen" (fun () -> gen ~seed ~cluster:i rate arrivals)
        in
        let sim = Span.host tr ~trace "check.build" (fun () -> Client.make_cluster ~seed ~sites) in
        Span.host tr ~trace "check.init" (fun () -> Client.init_data sim shape);
        (trace, rate, txns, sim))
      clusters
  in
  let schedules = List.length prepared in
  (* Each cluster is dropped once it has run, so the heap holds one
     drained cluster at a time, not all of them. *)
  let pending = Queue.of_seq (List.to_seq prepared) in
  fun tr ->
    let traced = tr <> None in
    let layers = Layers.create () in
    let results =
      List.init schedules (fun _ ->
          let trace, rate, txns, sim = Queue.pop pending in
          run_cluster ~traced tr layers ~trace rate txns sim)
    in
    let rungs =
      List.map
        (fun (rate, _, _) ->
          match List.filter (fun r -> r.rate = rate) (List.map fst results) with
          | r :: rest -> List.fold_left pool r rest
          | [] -> assert false)
        rungs
    in
    let committed = List.fold_left (fun acc r -> acc + r.committed) 0 rungs in
    let spans = match tr with Some sp -> Span.spans sp | None -> [] in
    {
      Work.rows = rows rungs;
      layer_rows = (if traced then Work.ledger_rows spans ~commits:committed else []);
      committed;
      schedules;
      checks = schedules;
      failures = List.concat_map snd results @ Work.ledger_failures spans;
      layers;
    }

let workload = { Work.name = "ladder"; setup; crosscheck = Work.no_crosscheck }
