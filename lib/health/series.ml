type point = { p_start_us : int; p_end_us : int; p_value : int }

(* A fixed ring of [keep] slots: push [n] writes slot [n mod keep], so a
   window close costs one point record however long the run is. Slots not
   yet written hold [blank], whose value 0 leaves [peak] and [total] as
   they are. *)
type t = { s_name : string; s_ring : point array; mutable s_pushed : int }

let blank = { p_start_us = 0; p_end_us = 0; p_value = 0 }

let create ?(keep = 64) name =
  if keep <= 0 then invalid_arg "Series.create: keep must be > 0";
  { s_name = name; s_ring = Array.make keep blank; s_pushed = 0 }

let name t = t.s_name
let keep t = Array.length t.s_ring
let pushed t = t.s_pushed

let push t ~start_us ~end_us v =
  t.s_ring.(t.s_pushed mod keep t) <-
    { p_start_us = start_us; p_end_us = end_us; p_value = v };
  t.s_pushed <- t.s_pushed + 1

let points t =
  let n = min t.s_pushed (keep t) in
  List.init n (fun i -> t.s_ring.((t.s_pushed - n + i) mod keep t))

let last t =
  if t.s_pushed = 0 then None else Some t.s_ring.((t.s_pushed - 1) mod keep t)

let peak t = Array.fold_left (fun acc p -> max acc p.p_value) 0 t.s_ring
let total t = Array.fold_left (fun acc p -> acc + p.p_value) 0 t.s_ring

(* Compact spark rendering for `locusctl top`: one glyph per retained
   window, oldest left, scaled against the series peak. *)
let spark t =
  let glyphs = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                  "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                  "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let hi = peak t in
  let b = Buffer.create (keep t * 3) in
  List.iter
    (fun p ->
      let i =
        if hi = 0 then 0
        else if p.p_value <= 0 then 0
        else 1 + (p.p_value * (Array.length glyphs - 2) / hi)
      in
      Buffer.add_string b glyphs.(min i (Array.length glyphs - 1)))
    (points t);
  Buffer.contents b

let pp_point_json ppf p =
  Fmt.pf ppf "{\"start_us\": %d, \"end_us\": %d, \"value\": %d}" p.p_start_us
    p.p_end_us p.p_value

let pp_json ppf t =
  (* Series names are code-chosen identifiers, so OCaml string escaping
     is JSON-compatible here. *)
  Fmt.pf ppf "{\"name\": %S, \"keep\": %d, \"pushed\": %d, \"points\": [%a]}"
    t.s_name (keep t) t.s_pushed
    (Fmt.list ~sep:(Fmt.any ", ") pp_point_json)
    (points t)

let pp_list_json ~window_us ~windows ppf series =
  Fmt.pf ppf "{@[<v 1>@,\"window_us\": %d,@,\"windows\": %d,@,\"series\": [%a]@]@,}@."
    window_us windows
    (Fmt.list ~sep:(Fmt.any ",@,") (fun ppf (_, s) -> pp_json ppf s))
    series
