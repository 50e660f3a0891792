(* Metric rows, exact percentiles and the summary statistics the report
   prints. *)

type clock = Span.clock = Virtual | Host

type row = {
  name : string;
  value : float;
  unit_ : string;
  clock : clock;
  samples : int;  (** sample count behind a percentile or mean; 0 if none *)
  spread : float option;  (** (max - min) / median over repetitions *)
}

let row ?(samples = 0) ?spread clock unit_ name value =
  { name; value; unit_; clock; samples; spread }

let ratio num den = if den = 0. then 0. else num /. den
let fi = float_of_int

(* Exact nearest-rank percentile [p] (in percent) of an ascending array,
   or [None] when fewer than ten samples lie beyond it: such a tail is
   one or two transactions, not a percentile. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (((p * n) + 99) / 100) in
  if n - rank < 10 then None else Some sorted.(rank - 1)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* p50 and p99 rows of [samples] (virtual µs) in milliseconds, named
   [<prefix>_p50_ms] and [<prefix>_p99_ms]; a percentile without ten
   samples beyond it is left out. *)
let percentile_rows prefix samples =
  let a = sorted_of_list samples in
  List.filter_map
    (fun p ->
      Option.map
        (fun v ->
          row ~samples:(Array.length a) Virtual "ms"
            (Printf.sprintf "%s_p%d_ms" prefix p)
            (fi v /. 1000.))
        (percentile a p))
    [ 50; 99 ]

let median xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let spread xs =
  let m = median xs in
  match xs with
  | [] -> 0.
  | x :: _ ->
    let lo = List.fold_left Float.min x xs and hi = List.fold_left Float.max x xs in
    ratio (hi -. lo) m

(* A host metric measured once per repetition: report the median, with the
   spread across repetitions. *)
let host_row unit_ name xs =
  row ~samples:(List.length xs) ~spread:(spread xs) Host unit_ name (median xs)

(* Canonical text of a virtual row, compared byte for byte across
   repetitions and between traced and untraced runs. *)
let canonical r = Printf.sprintf "%s=%.17g/%d" r.name r.value r.samples

let pp_row ppf r =
  Fmt.pf ppf "%-44s %16.6f %-6s %-7s" r.name r.value r.unit_ (Span.clock_name r.clock);
  if r.samples > 0 then Fmt.pf ppf " n=%d" r.samples;
  match r.spread with
  | Some s -> Fmt.pf ppf " spread=%.4f" s
  | None -> ()

let json_number v = Printf.sprintf "%.17g" v
