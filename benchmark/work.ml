(* What one repetition of a workload hands back to the driver loop. *)

type out = {
  rows : Metric.row list;
      (** virtual-clock end-to-end rows: deterministic per seed, compared
          byte for byte across repetitions and traced/untraced runs *)
  layer_rows : Metric.row list;  (** workload-specific per-layer rows *)
  committed : int;  (** committed simulated transactions *)
  schedules : int;  (** checked schedules (a ladder rung, a hotspot run, a seed) *)
  checks : int;  (** correctness checks made *)
  failures : string list;  (** correctness-check failures *)
  layers : Layers.t;
}

(* A workload's set-up (spec generation, cluster build, data-file
   initialisation) returns its timed part. Both take the span recorder
   of a traced repetition. [crosscheck] runs once after a traced run,
   outside every timed window, against one repetition's output. *)
type t = {
  name : string;
  setup : seed:int -> Span.t option -> Span.t option -> out;
  crosscheck : seed:int -> Span.t -> out -> Metric.row list * string list;
}

let no_crosscheck ~seed:_ _ _ = ([], [])

(* Per-layer rows of the client ledger, derived from the virtual spans of
   a traced run: each Api category per commit, exact p99 of lock and
   commit calls, and the ledger residual (the self time of the
   [bench.txn] roots, which must be 0). *)
let ledger_rows spans ~commits =
  let open Metric in
  let durs name = List.map (fun s -> int_of_float (Span.dur s)) (Span.named spans name) in
  let per_commit name =
    ratio (fi (List.fold_left ( + ) 0 (durs name)) /. 1000.) (fi commits)
  in
  let p99 name label =
    let a = sorted_of_list (durs name) in
    match percentile a 99 with
    | Some v -> [ row ~samples:(Array.length a) Virtual "ms" label (fi v /. 1000.) ]
    | None -> []
  in
  List.map
    (fun (label, cat) -> row Virtual "ms" label (per_commit ("api." ^ cat)))
    [ ("api.spawn_ms", "spawn"); ("api.open_ms", "open"); ("api.begin_ms", "begin");
      ("api.seek_ms", "seek"); ("api.lock_ms", "lock"); ("fs.read_ms", "read");
      ("fs.write_ms", "write"); ("txn.commit_ms", "commit"); ("api.close_ms", "close");
      ("api.exit_ms", "exit") ]
  @ p99 "api.lock" "lock.wait_p99_ms"
  @ p99 "api.commit" "txn.commit_p99_ms"
  @ [ row Virtual "us" "ledger.residual_us" (Span.total_self spans "bench.txn") ]

(* Ledger closure: every transaction's charges add up to its sojourn. *)
let ledger_failures spans =
  let self = Span.self_times spans in
  List.filter_map
    (fun s ->
      if self s <> 0. then
        Some (Printf.sprintf "ledger residual %.0f us on transaction span %d" (self s) s.Span.id)
      else None)
    (Span.named spans "bench.txn")
