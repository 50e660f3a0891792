module Hist = struct
  (* Power-of-two buckets: bucket 0 holds the value 0, bucket [i >= 1]
     holds values in [2^(i-1), 2^i). 63 buckets cover the whole
     non-negative [int] range, so memory is bounded no matter how many
     values are recorded. *)
  let nbuckets = 63

  type t = {
    buckets : int array;
    mutable count : int;
    mutable total : int;
    mutable vmin : int;
    mutable vmax : int;
  }

  let create () =
    { buckets = Array.make nbuckets 0; count = 0; total = 0; vmin = max_int; vmax = 0 }

  let index v =
    if v <= 0 then 0
    else begin
      (* number of significant bits of v, i.e. floor(log2 v) + 1 *)
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      min (nbuckets - 1) (bits 0 v)
    end

  let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)
  let bucket_hi i = 1 lsl i

  let add t v =
    let v = max 0 v in
    t.buckets.(index v) <- t.buckets.(index v) + 1;
    t.count <- t.count + 1;
    t.total <- t.total + v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.count
  let total t = t.total
  let min_value t = if t.count = 0 then 0 else t.vmin
  let max_value t = t.vmax
  let mean t = if t.count = 0 then 0. else float_of_int t.total /. float_of_int t.count

  let buckets t =
    let out = ref [] in
    for i = nbuckets - 1 downto 0 do
      if t.buckets.(i) > 0 then
        out := (bucket_lo i, bucket_hi i, t.buckets.(i)) :: !out
    done;
    !out

  (* Nearest-rank quantile over bucket counts: the estimate for per-mille
     [pm] is the upper edge (inclusive) of the bucket where the cumulative
     count reaches ceil(pm*n/1000), clamped to [vmax]. The one walk behind
     the percent, per-mille and snapshot quantiles. *)
  let walk_permille buckets ~count ~vmax pm =
    if count = 0 then 0
    else begin
      let rank = max 1 ((pm * count + 999) / 1000) in
      let rec walk i cum =
        if i >= nbuckets then vmax
        else
          let cum = cum + buckets.(i) in
          if cum >= rank then min (bucket_hi i - 1) vmax else walk (i + 1) cum
      in
      walk 0 0
    end

  let quantile_permille t pm =
    walk_permille t.buckets ~count:t.count ~vmax:t.vmax pm

  (* ceil(10*p*n/1000) = ceil(p*n/100): the same rank as a percent walk. *)
  let quantile t p = quantile_permille t (10 * p)

  let pp ppf t =
    Fmt.pf ppf "n=%d mean=%.1f min=%d p50=%d p95=%d p99=%d max=%d" t.count
      (mean t) (min_value t) (quantile t 50) (quantile t 95) (quantile t 99)
      t.vmax

  (* Immutable snapshots support interval merges: a sampler copies the
     bucket array at each window edge and diffs consecutive copies to get
     the histogram of just that window's recordings. *)
  type snap = { s_buckets : int array; s_count : int; s_total : int; s_vmax : int }

  let empty_snap =
    { s_buckets = Array.make nbuckets 0; s_count = 0; s_total = 0; s_vmax = 0 }

  let snapshot t =
    { s_buckets = Array.copy t.buckets; s_count = t.count; s_total = t.total;
      s_vmax = t.vmax }

  let diff cur prev =
    let b = Array.make nbuckets 0 in
    for i = 0 to nbuckets - 1 do
      b.(i) <- max 0 (cur.s_buckets.(i) - prev.s_buckets.(i))
    done;
    { s_buckets = b;
      s_count = max 0 (cur.s_count - prev.s_count);
      s_total = max 0 (cur.s_total - prev.s_total);
      s_vmax = cur.s_vmax }

  let snap_count s = s.s_count
  let snap_total s = s.s_total
  let snap_mean s =
    if s.s_count = 0 then 0. else float_of_int s.s_total /. float_of_int s.s_count

  (* The upper clamp is the source histogram's lifetime max, an upper
     bound for the interval. *)
  let snap_quantile s p =
    walk_permille s.s_buckets ~count:s.s_count ~vmax:s.s_vmax (10 * p)
end

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; hists = Hashtbl.create 32 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let counter = counter_ref
let incr t name = incr (counter_ref t name)

let add t name n =
  let r = counter_ref t name in
  r := !r + n
let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0
let reset t name = match Hashtbl.find_opt t.counters name with Some r -> r := 0 | None -> ()

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_ref t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.add t.hists name h;
    h

let hist t name v = Hist.add (hist_ref t name) v
let histogram t name = Hashtbl.find_opt t.hists name

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  List.iter (fun (k, v) -> Fmt.pf ppf "%-40s %d@." k v) (counters t);
  List.iter (fun (k, h) -> Fmt.pf ppf "%-40s %a@." k Hist.pp h) (histograms t)
