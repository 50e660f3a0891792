(* The repository benchmark.

     benchmark/run.sh --workload ladder|hotspot|sweep|audit --seed N \
       --seconds S --trace 0|1

   Builds the workload's inputs from the seed, then repeats set-up and the
   timed run until [--seconds] have passed (and at least a few times).
   Virtual-clock metrics come from one repetition and must be
   byte-identical in every other; host-clock metrics are medians over the
   repetitions, printed with their spread. With [--trace 1] repetitions
   alternate untraced and traced; the traced ones record spans, from
   which the per-layer metrics are derived, and the spans of the last one
   are written to [benchmark/_out/]. The last line of standard output is
   one JSON object; the exit code is 1 when any correctness check
   failed. *)

let workloads = [ Ladder.workload; Hotspot.workload; Checked.sweep; Checked.audit ]

(* The metrics of the final JSON line, per mode. *)
let end_to_end =
  [ "setup_s"; "peak_heap_mb"; "sim_txn_per_host_s"; "schedules_per_host_s";
    "sojourn_p50_ms"; "committed_per_s" ]

let per_layer =
  [ "trace.overhead_frac"; "host.sim_us_per_event"; "host.alloc_words_per_event";
    "host.heap_words_per_commit"; "check.gen_ms"; "check.build_ms"; "check.sim_ms";
    "check.checker_ms"; "sim.events_per_commit"; "cpu.ms_per_commit";
    "lock.requests_per_commit"; "lock.wait_frac"; "lock.wait_ms"; "commit.merge_frac";
    "disk.reads_per_commit"; "disk.writes_per_commit"; "disk.log_writes_per_commit";
    "cache.hit_frac"; "net.msgs_per_commit"; "net.retries"; "deadlock.scans_per_commit";
    "deadlock.victims_per_scan"; "txn.abort.deadlock_frac"; "failed_frac"; "sojourn_p99_ms" ]

let min_reps = 2
let max_elapsed_s = 150.

type rep = {
  out : Work.out;
  traced : bool;
  setup_s : float;
  run_s : float;
  alloc_words : float;
  spans : Span.t option;
}

let now = Unix.gettimeofday
let word_bytes = float_of_int (Sys.word_size / 8)

let one_rep (w : Work.t) ~seed ~traced =
  Gc.full_major ();
  let tr = if traced then Some (Span.create ()) else None in
  let t0 = now () in
  let run = w.Work.setup ~seed tr in
  let t1 = now () in
  let a0 = Gc.allocated_bytes () in
  let out = run tr in
  let t2 = now () in
  {
    out;
    traced;
    setup_s = t1 -. t0;
    run_s = t2 -. t1;
    alloc_words = (Gc.allocated_bytes () -. a0) /. word_bytes;
    spans = tr;
  }

(* Repeat until the time is up: at least [min_reps] repetitions, or
   [min_reps] untraced and [min_reps] traced ones, alternating, when
   tracing. A repetition is not started when, at the last one's length,
   it would end further past [seconds] than stopping now falls short. *)
let repeat w ~seed ~seconds ~trace =
  let start = now () in
  let rec go i acc =
    let traced = trace && i mod 2 = 1 in
    let t0 = now () in
    let acc = one_rep w ~seed ~traced :: acc in
    let elapsed = now () -. start and last = now () -. t0 in
    let enough = i + 1 >= if trace then 2 * min_reps else min_reps in
    if (enough && elapsed +. (last /. 2.) >= seconds) || elapsed >= max_elapsed_s then
      List.rev acc
    else go (i + 1) acc
  in
  go 0 []

let fi = Metric.fi

(* Host rows of the untraced repetitions (end to end). *)
let host_rows reps =
  let plain = List.filter (fun r -> not r.traced) reps in
  let per f = List.map f plain in
  [ Metric.host_row "s" "setup_s" (List.map (fun r -> r.setup_s) reps);
    Metric.row Metric.Host "MB" "peak_heap_mb"
      (fi (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1e6);
    Metric.host_row "1/s" "sim_txn_per_host_s" (per (fun r -> fi r.out.Work.committed /. r.run_s));
    Metric.host_row "1/s" "schedules_per_host_s"
      (per (fun r -> fi r.out.Work.schedules /. r.run_s)) ]

(* Host per-layer rows of one traced repetition, from its phase spans. *)
let phase_rows rep =
  let spans = match rep.spans with Some sp -> Span.spans sp | None -> [] in
  let sum name = List.fold_left (fun acc s -> acc +. Span.dur s) 0. (Span.named spans name) in
  let n = fi rep.out.Work.schedules in
  let builds = Span.named spans "check.build" in
  let events = fi (Layers.get rep.out.Work.layers "events") in
  let open Metric in
  [ row Host "ms" "check.gen_ms" (sum "check.gen" /. n /. 1000.);
    row Host "ms" "check.build_ms" (ratio (sum "check.build") (fi (List.length builds)) /. 1000.);
    row Host "ms" "check.init_ms" (sum "check.init" /. n /. 1000.);
    row Host "ms" "check.sim_ms" (sum "check.sim" /. n /. 1000.);
    row Host "ms" "check.checker_ms" (sum "check.checker" /. n /. 1000.);
    row Host "us" "host.sim_us_per_event" (ratio (sum "check.sim") events) ]

(* Per-layer rows: medians over the traced repetitions, by name. *)
let layer_rows reps =
  let plain = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  let per_rep r =
    let out = r.out in
    phase_rows r
    @ Layers.rows out.Work.layers ~commits:out.Work.committed
    @ out.Work.layer_rows
  in
  let tables = List.map per_rep traced in
  let names = match tables with t :: _ -> List.map (fun r -> r.Metric.name) t | [] -> [] in
  let pick name t = List.find (fun r -> String.equal r.Metric.name name) t in
  let medians =
    List.map
      (fun name ->
        let rows = List.map (pick name) tables in
        let first = List.hd rows in
        match first.Metric.clock with
        | Metric.Virtual -> first
        | Metric.Host ->
          Metric.host_row first.Metric.unit_ name (List.map (fun r -> r.Metric.value) rows))
      names
  in
  let med f rs = Metric.median (List.map f rs) in
  let events r = fi (Layers.get r.out.Work.layers "events") in
  let commits r = fi r.out.Work.committed in
  let top_heap = fi (Gc.quick_stat ()).Gc.top_heap_words in
  medians
  @ [ Metric.host_row "words" "host.alloc_words_per_event"
        (List.map (fun r -> Metric.ratio r.alloc_words (events r)) plain);
      Metric.row Metric.Host "words" "host.heap_words_per_commit"
        (Metric.ratio top_heap (med commits plain));
      Metric.row Metric.Host "ratio" "trace.overhead_frac"
        (med (fun r -> r.run_s) traced /. med (fun r -> r.run_s) plain -. 1.) ]

(* Every repetition must reproduce the first one's virtual metrics byte
   for byte, traced or not. *)
let determinism_failures reps =
  match reps with
  | [] -> []
  | first :: rest ->
    let canon r =
      let out = r.out in
      String.concat ";"
        (List.map Metric.canonical
           (out.Work.rows @ Layers.rows out.Work.layers ~commits:out.Work.committed))
    in
    let c0 = canon first in
    List.filter_map
      (fun r ->
        if String.equal (canon r) c0 then None
        else
          Some
            (Printf.sprintf "virtual metrics differ between repetitions (%s run)"
               (if r.traced then "traced" else "untraced")))
      rest

let write_spans (w : Work.t) ~seed sp =
  let dir = Filename.concat "benchmark" "_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" w.Work.name seed) in
  Span.write_jsonl sp path;
  path

let json_line ~correct ~attempted ~failed rows names =
  let metric name =
    match List.find_opt (fun r -> String.equal r.Metric.name name) rows with
    | Some r ->
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (Metric.json_number r.Metric.value)
        r.Metric.unit_
    | None -> ""
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.filter (fun s -> s <> "") (List.map metric names)))

let usage () =
  prerr_endline
    "usage: main.exe --workload ladder|hotspot|sweep|audit --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" and seed = int "seed" and seconds = fi (int "seconds") in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  let w =
    match List.find_opt (fun (w : Work.t) -> String.equal w.Work.name name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let reps = repeat w ~seed ~seconds ~trace in
  let first = List.hd reps in
  (* The last traced repetition's recorder also takes the cross-check's
     spans, and is the one written out. *)
  let last_spans =
    List.find_map (fun r -> Option.map (fun sp -> (sp, r.out)) r.spans) (List.rev reps)
  in
  let cross_rows, cross_failures =
    match last_spans with
    | Some (sp, out) -> w.Work.crosscheck ~seed sp out
    | None -> ([], [])
  in
  let rows =
    host_rows reps @ first.out.Work.rows @ if trace then layer_rows reps @ cross_rows else []
  in
  let names = if trace then per_layer else end_to_end in
  let missing =
    List.filter_map
      (fun n ->
        match List.find_opt (fun r -> String.equal r.Metric.name n) rows with
        | Some r when Float.is_finite r.Metric.value -> None
        | Some _ -> Some (n ^ " is not a finite number")
        | None -> Some (n ^ " was not measured"))
      names
  in
  let failures =
    List.concat_map (fun r -> r.out.Work.failures) reps
    @ determinism_failures reps @ cross_failures @ missing
  in
  let spans_path = Option.map (fun (sp, _) -> write_spans w ~seed sp) last_spans in
  let attempted = List.fold_left (fun acc r -> acc + r.out.Work.checks) 0 reps in
  Fmt.pr "workload %s, seed %d: %d repetitions (%d traced)@." name seed (List.length reps)
    (List.length (List.filter (fun r -> r.traced) reps));
  List.iteri
    (fun i r ->
      Fmt.pr "  repetition %d%s: set-up %.4f s, run %.4f s@." (i + 1)
        (if r.traced then " (traced)" else "")
        r.setup_s r.run_s)
    reps;
  List.iter (fun r -> Fmt.pr "%a@." Metric.pp_row r) rows;
  Option.iter (Fmt.pr "spans: %s@.") spans_path;
  List.iter (Fmt.epr "FAILED: %s@.") failures;
  let correct = failures = [] in
  print_endline
    (json_line ~correct ~attempted ~failed:(min attempted (List.length failures)) rows names);
  if not correct then exit 1
