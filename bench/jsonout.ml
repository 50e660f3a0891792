(* Machine-readable experiment results. An experiment that calls [write]
   drops a BENCH_<exp>.json in the working directory with throughput and
   virtual-latency percentiles per measured case, so CI and scripts can
   trend results without scraping the human tables; [read] parses the
   same format back for the claim checks in [Gate]. The JSON is
   hand-formatted: the harness deliberately carries no serialization
   dependency. *)

(* One row of a per-phase commit-latency breakdown, harvested from the
   span collector's bounded histograms (Otrace.phases). *)
type phase = {
  ph_name : string;
  ph_count : int;
  ph_total_us : int;  (** summed virtual time inside the phase *)
  ph_p50_us : int;
}

type metric = {
  label : string;
  ops_per_sec : float;  (** throughput in operations per virtual second *)
  p50_us : int;  (** median virtual latency, microseconds *)
  p99_us : int;
  samples : int;
  phases : phase list;  (** optional per-phase breakdown; often empty *)
  extras : (string * float) list;
      (** experiment-specific scalar fields, emitted verbatim as extra
          JSON keys on the metric object (e.g. ["coord_forces"]) so an
          experiment's claims can check them; often empty *)
}

let percentile latencies p =
  match List.sort Int.compare latencies with
  | [] -> 0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.round (p *. float_of_int (n - 1) /. 100.)) in
    List.nth sorted (max 0 (min (n - 1) rank))

(* A metric from raw per-operation virtual latencies plus the virtual
   wall time the batch spanned (concurrent operations overlap, so
   throughput comes from the span, not the latency sum). *)
let metric ?(phases = []) ?(extras = []) ~label ~span_us latencies =
  let samples = List.length latencies in
  let ops_per_sec =
    if span_us <= 0 then 0.
    else float_of_int samples /. (float_of_int span_us /. 1_000_000.)
  in
  {
    label;
    ops_per_sec;
    p50_us = percentile latencies 50.;
    p99_us = percentile latencies 99.;
    samples;
    phases;
    extras;
  }

(* A metric from one measured operation (e.g. the single-shot paper
   reproductions): percentiles collapse to the one latency. *)
let single ?(phases = []) ?(extras = []) ~label ~latency_us () =
  {
    label;
    ops_per_sec =
      (if latency_us <= 0 then 0. else 1_000_000. /. float_of_int latency_us);
    p50_us = latency_us;
    p99_us = latency_us;
    samples = 1;
    phases;
    extras;
  }

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON has no infinity or NaN: a non-finite value is a bug in the
   experiment that computed it, caught before the file is written. *)
let write ~exp metrics =
  let finite what v =
    if not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "Jsonout.write %s: %s is %g" exp what v)
  in
  List.iter
    (fun m ->
      finite (m.label ^ " ops_per_sec") m.ops_per_sec;
      List.iter (fun (k, v) -> finite (m.label ^ " " ^ k) v) m.extras)
    metrics;
  let file = Printf.sprintf "BENCH_%s.json" exp in
  Out_channel.with_open_text file (fun oc ->
      let pf fmt = Printf.fprintf oc fmt in
      pf "{\n  \"experiment\": \"%s\",\n  \"metrics\": [\n" (escape exp);
      List.iteri
        (fun i m ->
          pf
            "    {\"label\": \"%s\", \"ops_per_sec\": %.2f, \
             \"p50_virtual_us\": %d, \"p99_virtual_us\": %d, \"samples\": %d"
            (escape m.label) m.ops_per_sec m.p50_us m.p99_us m.samples;
          List.iter
            (fun (k, v) -> pf ", \"%s\": %.2f" (escape k) v)
            m.extras;
          (match m.phases with
          | [] -> ()
          | phases ->
            pf ",\n     \"phases\": [\n";
            List.iteri
              (fun j p ->
                pf
                  "       {\"name\": \"%s\", \"count\": %d, \
                   \"total_virtual_us\": %d, \"p50_virtual_us\": %d}%s\n"
                  (escape p.ph_name) p.ph_count p.ph_total_us p.ph_p50_us
                  (if j = List.length phases - 1 then "" else ","))
              phases;
            pf "     ]");
          pf "}%s\n" (if i = List.length metrics - 1 then "" else ","))
        metrics;
      pf "  ]\n}\n");
  Fmt.pr "(wrote %s)@." file

(* A metric as read back: its label and every numeric field under the
   key [write] gave it ("ops_per_sec", "p50_virtual_us", the extras),
   with the printed rounding, so a check judges the published numbers. *)
type row = { row_label : string; fields : (string * float) list }

(* [write] prints one metric per line: the label first, then the numeric
   fields up to the closing brace or the phases list. A value that is
   not a finite JSON number ends the row's fields there. *)
let read file =
  let number v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> f
    | _ -> failwith "not a JSON number"
  in
  let metric line =
    let ib = Scanf.Scanning.from_string line in
    let rec fields acc =
      match Scanf.bscanf ib ", %S: %[^,}\n]" (fun k v -> (k, number v)) with
      | kv -> fields (kv :: acc)
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> List.rev acc
    in
    match Scanf.bscanf ib " {\"label\": %S" Fun.id with
    | row_label -> Some { row_label; fields = fields [] }
    | exception (Scanf.Scan_failure _ | End_of_file) -> None
  in
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n' |> List.filter_map metric
