(* The bench gate. An experiment that publishes a BENCH_<exp>.json has
   its rows judged as soon as they are written: against its own claims,
   declared beside it with their bounds as named constants, and against
   the committed copy in bench/baselines/. Rows are read back from the
   file, so claims see the published rounding. One line is printed per
   claim (failures on stderr); the harness exits 1 if any failed. *)

type rows = Jsonout.row list

(* Whether the claim holds, plus the evidence to print. *)
type claim = { name : string; check : rows -> bool * string }

(* A missing row or field fails the claim that asked for it. *)
exception Missing of string

let claim name check = { name; check }
let verdict ok fmt = Printf.ksprintf (fun s -> (ok, s)) fmt

let field (r : Jsonout.row) key =
  match List.assoc_opt key r.fields with
  | Some v -> v
  | None -> raise (Missing (Printf.sprintf "field %s of row %S" key r.row_label))

let with_prefix p rows =
  List.filter (fun (r : Jsonout.row) -> String.starts_with ~prefix:p r.row_label) rows

let row p rows =
  match with_prefix p rows with r :: _ -> r | [] -> raise (Missing (Printf.sprintf "row %S" p))

(* [f] holds on every row whose label starts with [p], of which there
   is at least one. *)
let each p f rows =
  match with_prefix p rows with
  | [] -> raise (Missing (Printf.sprintf "rows %S" p))
  | rs ->
    let vs = List.map (fun (r : Jsonout.row) -> (r.row_label, f r)) rs in
    ( List.for_all (fun (_, (ok, _)) -> ok) vs,
      String.concat "; " (List.map (fun (l, (_, e)) -> l ^ ": " ^ e) vs) )

let bound op sym p key limit =
  claim (Printf.sprintf "%s: %s %s %g" p key sym limit)
    (each p (fun r -> verdict (op (field r key) limit) "%.10g" (field r key)))

let at_least = bound ( >= ) ">="
let at_most = bound ( <= ) "<="

(* [key] equals [want], a function of the row's fields, on every [p] row. *)
let each_equals p name key want =
  claim name
    (each p (fun r ->
         let v = field r in
         verdict (v key = want v) "%g" (v key)))

(* [ok v v0] for each [p] row's [key] against the [reference] row's. *)
let versus name p ~reference key ok =
  claim name (fun rows ->
      let v0 = field (row reference rows) key in
      each p (fun r -> verdict (ok (field r key) v0) "%.10g vs %.10g" (field r key) v0) rows)

(* Drift allowed against a reference: the baseline's p50 and throughput,
   and E20's health-off row. *)
let tolerance_pct = 10.

let within_tolerance c base =
  if base = 0. then c = 0. else Float.abs (c -. base) *. 100. <= tolerance_pct *. base

(* Each baselined row is still there, its p50 within the tolerance and
   its throughput at most the tolerance below, and each current row has
   a baseline. The simulation is deterministic: drift is a real change
   to the protocol's work. *)
let matches (base : rows) rows =
  let find l rs = List.find_opt (fun (r : Jsonout.row) -> r.row_label = l) rs in
  let drift (b : Jsonout.row) =
    match find b.row_label rows with
    | None -> [ Printf.sprintf "%S vanished" b.row_label ]
    | Some c ->
      let p50 r = field r "p50_virtual_us" and ops r = field r "ops_per_sec" in
      (if within_tolerance (p50 c) (p50 b) then []
       else [ Printf.sprintf "%S p50 %.0fus vs %.0fus" b.row_label (p50 c) (p50 b) ])
      @
      if ops c *. 100. >= ops b *. (100. -. tolerance_pct) then []
      else [ Printf.sprintf "%S %.2f ops/s vs %.2f" b.row_label (ops c) (ops b) ]
  in
  let unbaselined (r : Jsonout.row) =
    if find r.row_label base = None then [ Printf.sprintf "%S has no baseline" r.row_label ]
    else []
  in
  match List.concat_map drift base @ List.concat_map unbaselined rows with
  | [] -> verdict true "%d rows" (List.length rows)
  | bad -> verdict false "%s" (String.concat "; " bad)

let failures = ref 0

let publish ~exp ?(claims = []) metrics =
  Jsonout.write ~exp metrics;
  let baseline = Printf.sprintf "bench/baselines/BENCH_%s.json" exp in
  let against_baseline =
    claim (Printf.sprintf "rows within %g%% of %s" tolerance_pct baseline) (fun rows ->
        if Sys.file_exists baseline then matches (Jsonout.read baseline) rows
        else verdict false "no baseline committed")
  in
  let rows = Jsonout.read (Printf.sprintf "BENCH_%s.json" exp) in
  List.iter
    (fun c ->
      let ok, evidence =
        try c.check rows with Missing what -> (false, "missing " ^ what)
      in
      if ok then Fmt.pr "claim %s: %s: ok (%s)@." exp c.name evidence
      else begin
        incr failures;
        Fmt.epr "CLAIM FAILED %s: %s: %s@." exp c.name evidence
      end)
    (against_baseline :: claims)
