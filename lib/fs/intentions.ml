type page_commit = {
  index : int;
  slot : int;
  base_slot : int;
  gen : int;
  ranges : (int * int) list;
  sole : bool;
}

type t = {
  fid : File_id.t;
  owner : Owner.t;
  new_size : int;
  pages : page_commit list;
}

let slots t = List.map (fun p -> p.slot) t.pages
let page_indices t = List.map (fun p -> p.index) t.pages

(* The log payload is a marshalled copy guarded by a magic prefix; a real
   system would use a fixed on-disk record format, but the recovery logic
   exercised here only needs a faithful round-trip. *)
let magic = "ILST1:"

let encode t = magic ^ Marshal.to_string t []

let decode s =
  let mlen = String.length magic in
  if String.length s > mlen && String.sub s 0 mlen = magic then
    try Some (Marshal.from_string s mlen : t) with Failure _ -> None
  else None

let pp_page ppf p =
  Fmt.pf ppf "p%d%s>%d(base %d)%a" p.index
    (if p.sole then "-" else "~")
    p.slot p.base_slot
    Fmt.(list ~sep:(any "") (fun ppf (o, l) -> Fmt.pf ppf "[%d+%d]" o l))
    p.ranges

let pp ppf t =
  Fmt.pf ppf "@[<h>intent %a %a size=%d %a@]" File_id.pp t.fid Owner.pp t.owner
    t.new_size
    Fmt.(list ~sep:(any " ") pp_page)
    t.pages
