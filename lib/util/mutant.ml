type t = Locks | Repl | Paxos | Shard | Dedup | Health | Batch | Load

let all = [ Locks; Repl; Paxos; Shard; Dedup; Health; Batch; Load ]

let name = function
  | Locks -> "locks"
  | Repl -> "repl"
  | Paxos -> "paxos"
  | Shard -> "shard"
  | Dedup -> "dedup"
  | Health -> "health"
  | Batch -> "batch"
  | Load -> "load"

let of_string s = List.find_opt (fun m -> name m = s) all

let doc = function
  | Locks -> "!! breaking the shared/exclusive compatibility rule (Figure 1)"
  | Repl ->
    "!! breaking commit propagation (secondaries silently stop receiving \
     updates)"
  | Paxos ->
    "!! breaking Paxos Commit acceptors (votes acknowledged but never \
     registered or persisted)"
  | Shard ->
    "!! breaking shard migration (old owners keep granting at stale epochs \
     after handing the role away)"
  | Dedup ->
    "!! breaking exactly-once RPC (servers skip the reply cache and re-run \
     every retried or duplicated request)"
  | Health ->
    "!! breaking the health watchdog (threshold rules evaluated never, \
     alarms raised never)"
  | Batch ->
    "!! breaking batching (group commit, RPC batching and lock-read \
     piggybacking degrade to unbatched under the same windows)"
  | Load ->
    "!! breaking engine dispatch speed (an O(n) scan per dispatched event)"

(* Constant constructors are the immediates 0..7, so the index is the
   value itself and [armed] is a single load. *)
external index : t -> int = "%identity"

let state = Array.make (List.length all) false
let armed m = Array.unsafe_get state (index m)

let with_armed ms f =
  let saved = Array.copy state in
  List.iter (fun m -> state.(index m) <- true) ms;
  Fun.protect f ~finally:(fun () ->
      Array.blit saved 0 state 0 (Array.length state))

let of_env () =
  match Sys.getenv_opt "LOCUS_BREAK" with
  | None -> []
  | Some s ->
    List.filter_map
      (fun word ->
        match String.trim word with
        | "" -> None
        | w -> (
          match of_string w with
          | Some m -> Some m
          | None ->
            invalid_arg
              (Printf.sprintf "LOCUS_BREAK: unknown mutant %S (known: %s)" w
                 (String.concat ", " (List.map name all)))))
      (String.split_on_char ',' s)
