(* Migration policy: when does the lock-manager role chase the traffic?
   [Threshold n] moves it to a remote site after [n] consecutive
   acquisitions from that site, by an epoch-fenced transfer — §5.2's
   hand-over of lock management to a heavy user (E2d's "migrates" row);
   [Never] pins ownership at the default placement — the benches' "off"
   and "stays" rows and a safe choice for uniformly spread traffic. *)

type t = Never | Threshold of int

let default = Threshold 3

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "never" | "off" -> Ok Never
  | s -> (
    let n =
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "threshold" ->
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      | Some _ -> None
      | None -> int_of_string_opt s
    in
    match n with
    | Some n when n > 0 -> Ok (Threshold n)
    | Some _ | None ->
      Error (Printf.sprintf "bad migration policy %S (never | threshold:N)" s))

let pp ppf = function
  | Never -> Fmt.string ppf "never"
  | Threshold n -> Fmt.pf ppf "threshold:%d" n

let decide t ~streak =
  match t with Never -> false | Threshold n -> streak >= n
