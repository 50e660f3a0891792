type t = Unix_access | Shared | Exclusive

let equal a b =
  match (a, b) with
  | Unix_access, Unix_access | Shared, Shared | Exclusive, Exclusive -> true
  | (Unix_access | Shared | Exclusive), _ -> false

let to_string = function
  | Unix_access -> "unix"
  | Shared -> "shared"
  | Exclusive -> "exclusive"

let pp ppf m = Fmt.string ppf (to_string m)

(* Figure 1: rows are the holder's mode, columns the other party's. The
   [Mutant.Locks] self-test lets shared and exclusive coexist, which
   [Locus_check] must catch as dirty reads and conflict cycles. *)
let access held other =
  match (held, other) with
  | Unix_access, Unix_access -> `Read_write
  | (Shared, Exclusive | Exclusive, Shared) when Mutant.(armed Locks) ->
    `Read
  | Unix_access, Shared -> `Read
  | Shared, Unix_access -> `Read
  | Shared, Shared -> `Read
  | Exclusive, (Unix_access | Shared | Exclusive)
  | (Unix_access | Shared), Exclusive ->
    `None

let compatible held requested = access held requested <> `None

let strength = function Unix_access -> 0 | Shared -> 1 | Exclusive -> 2
let stronger a b = strength a > strength b
let allows_read_by_other = function Unix_access | Shared -> true | Exclusive -> false
let allows_write_by_other = function Unix_access -> true | Shared | Exclusive -> false

let all = [ Unix_access; Shared; Exclusive ]

let figure_1 =
  List.map (fun row -> (row, List.map (fun col -> (col, access row col)) all)) all
