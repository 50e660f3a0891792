type t = { mutable adj : Owner.Set.t Owner.Map.t }

let create () = { adj = Owner.Map.empty }

let add_node t o =
  if not (Owner.Map.mem o t.adj) then t.adj <- Owner.Map.add o Owner.Set.empty t.adj

let add_edge t ~waiter ~blocker =
  add_node t waiter;
  add_node t blocker;
  t.adj <-
    Owner.Map.update waiter
      (function
        | Some s -> Some (Owner.Set.add blocker s)
        | None -> Some (Owner.Set.singleton blocker))
      t.adj

let add_table t table =
  List.iter
    (fun (waiter, blockers) ->
      List.iter (fun blocker -> add_edge t ~waiter ~blocker) blockers)
    (Locus_lock.Lock_table.waits_for table)

let of_tables tables =
  let t = create () in
  List.iter (add_table t) tables;
  t

let edges t =
  Owner.Map.fold
    (fun waiter blockers acc ->
      Owner.Set.fold (fun blocker acc -> (waiter, blocker) :: acc) blockers acc)
    t.adj []
  |> List.rev

let nodes t = List.map fst (Owner.Map.bindings t.adj)

(* DFS with the classic three colors; traversal order follows the map's
   key order, so results are deterministic. *)
let find_cycle t =
  let state = Hashtbl.create 16 in
  let rec visit path o =
    match Hashtbl.find_opt state o with
    | Some `Done -> None
    | Some `Active ->
      (* Found a back edge: the cycle is the suffix of [path] from [o]. *)
      let rec take = function
        | [] -> []
        | x :: rest -> if Owner.equal x o then [ x ] else x :: take rest
      in
      Some (List.rev (take path))
    | None ->
      Hashtbl.replace state o `Active;
      let succ =
        match Owner.Map.find_opt o t.adj with
        | Some s -> Owner.Set.elements s
        | None -> []
      in
      let rec try_succ = function
        | [] ->
          Hashtbl.replace state o `Done;
          None
        | s :: rest -> (
          match visit (o :: path) s with Some c -> Some c | None -> try_succ rest)
      in
      try_succ succ
  in
  let rec scan = function
    | [] -> None
    | o :: rest -> ( match visit [] o with Some c -> Some c | None -> scan rest)
  in
  scan (nodes t)

let remove t o =
  t.adj <- Owner.Map.remove o t.adj;
  t.adj <- Owner.Map.map (fun s -> Owner.Set.remove o s) t.adj

(* Victim preference: abort a transaction rather than block a plain
   process, and among transactions the youngest (largest sequence number)
   — it has probably done the least work. *)
let prefer a b =
  match (a, b) with
  | Owner.Transaction x, Owner.Transaction y -> Txid.compare x y
  | Owner.Transaction _, Owner.Process _ -> 1
  | Owner.Process _, Owner.Transaction _ -> -1
  | Owner.Process x, Owner.Process y -> Pid.compare x y

let victims t =
  let g = { adj = t.adj } in
  let rec go acc =
    match find_cycle g with
    | None -> List.rev acc
    | Some cycle ->
      let victim =
        List.fold_left
          (fun best o ->
            match best with
            | None -> Some o
            | Some b -> if prefer o b > 0 then Some o else best)
          None cycle
      in
      let victim = Option.get victim in
      remove g victim;
      go (victim :: acc)
  in
  go []

let pp ppf t =
  List.iter
    (fun (w, b) -> Fmt.pf ppf "%a -> %a@." Owner.pp w Owner.pp b)
    (edges t)
