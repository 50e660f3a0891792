(* Owners are interned to dense ints in order of first appearance, and
   the edges are kept raw (repeats allowed) until a query builds
   successor lists from them. An answer that depends on the visit order
   ranks the graph first: nodes sorted by [Owner.compare] and each
   node's successors by rank, without repeats, so the DFS below visits
   nodes and edges in exactly the order an [Owner.Map] of [Owner.Set]s
   would give. *)

module Ids = Hashtbl.Make (struct
  type t = Owner.t

  let equal = Owner.equal

  let hash = function
    | Owner.Transaction { Txid.site; incarnation; seq } ->
      (((site * 65599) + incarnation) * 65599) + seq
    | Owner.Process { Pid.origin; num } -> lnot ((origin * 65599) + num)
end)

type t = {
  ids : int Ids.t;
  mutable owners : Owner.t array;  (* node -> owner *)
  mutable src : int array;  (* edge -> waiter node *)
  mutable dst : int array;  (* edge -> blocker node *)
  mutable m : int;  (* edges *)
}

(* A graph for the DFS: [owners.(v)] is node [v]'s owner, and its
   successors are [succ.(first.(v)) .. succ.(first.(v + 1) - 1)]. *)
type graph = { owners : Owner.t array; first : int array; succ : int array }

let create () =
  { ids = Ids.create 16; owners = [||]; src = [||]; dst = [||]; m = 0 }

let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * n)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let node t o =
  match Ids.find_opt t.ids o with
  | Some v -> v
  | None ->
    let v = Ids.length t.ids in
    t.owners <- grow t.owners v o;
    t.owners.(v) <- o;
    Ids.add t.ids o v;
    v

let add_edge t ~waiter ~blocker =
  let w = node t waiter and b = node t blocker in
  t.src <- grow t.src t.m 0;
  t.dst <- grow t.dst t.m 0;
  t.src.(t.m) <- w;
  t.dst.(t.m) <- b;
  t.m <- t.m + 1

let of_tables tables =
  let t = create () in
  let add waiter blocker = add_edge t ~waiter ~blocker in
  List.iter (fun table -> Locus_lock.Lock_table.iter_waits table add) tables;
  t

(* A removed owner keeps its node but loses its edges: an isolated node
   is on no cycle and in no edge, just like an absent one. *)
let remove t o =
  match Ids.find_opt t.ids o with
  | None -> ()
  | Some v ->
    let k = ref 0 in
    for i = 0 to t.m - 1 do
      if t.src.(i) <> v && t.dst.(i) <> v then begin
        t.src.(!k) <- t.src.(i);
        t.dst.(!k) <- t.dst.(i);
        incr k
      end
    done;
    t.m <- !k

(* The successor lists of [n] nodes from the edges [src.(i) -> dst.(i)],
   in edge order: a counting sort by source. *)
let adjacency n m src dst =
  let first = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    first.(src.(i) + 1) <- first.(src.(i) + 1) + 1
  done;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  let next = Array.sub first 0 n and succ = Array.make m 0 in
  for i = 0 to m - 1 do
    let v = src.(i) in
    succ.(next.(v)) <- dst.(i);
    next.(v) <- next.(v) + 1
  done;
  (first, succ)

(* The graph in intern order, repeats and all: enough to tell whether
   there is a cycle at all, which does not depend on the visit order. *)
let interned t =
  let first, succ = adjacency (Ids.length t.ids) t.m t.src t.dst in
  { owners = t.owners; first; succ }

(* The graph over ranks: node [r] is the [r]-th smallest owner, and each
   successor list is ascending and without repeats. *)
let ranked t =
  let n = Ids.length t.ids in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Owner.compare t.owners.(a) t.owners.(b)) order;
  let rank = Array.make n 0 in
  Array.iteri (fun r v -> rank.(v) <- r) order;
  let first, succ =
    adjacency n t.m (Array.map (fun v -> rank.(v)) (Array.sub t.src 0 t.m))
      (Array.map (fun v -> rank.(v)) (Array.sub t.dst 0 t.m))
  in
  (* Sort each list by insertion (they are short) and squeeze out the
     repeats, moving the lists down over the gaps. *)
  let k = ref 0 and lo = ref 0 in
  for r = 0 to n - 1 do
    let hi = first.(r + 1) in
    for i = !lo + 1 to hi - 1 do
      let x = succ.(i) and j = ref (i - 1) in
      while !j >= !lo && succ.(!j) > x do
        succ.(!j + 1) <- succ.(!j);
        decr j
      done;
      succ.(!j + 1) <- x
    done;
    first.(r) <- !k;
    for i = !lo to hi - 1 do
      if i = !lo || succ.(i) <> succ.(i - 1) then begin
        succ.(!k) <- succ.(i);
        incr k
      end
    done;
    lo := hi
  done;
  first.(n) <- !k;
  { owners = Array.map (fun v -> t.owners.(v)) order; first; succ }

let edges t =
  let g = ranked t in
  let acc = ref [] in
  for r = Array.length g.first - 2 downto 0 do
    for i = g.first.(r + 1) - 1 downto g.first.(r) do
      acc := (g.owners.(r), g.owners.(g.succ.(i))) :: !acc
    done
  done;
  !acc

(* DFS with the classic three colours, roots and successors in node
   order, so results are deterministic. [stack.(d)] is the node at depth
   [d] of the current path and [pos.(v)] the depth of an active [v]. A
   back edge from depth [d] to an active [v] is the cycle
   [stack.(pos.(v)) .. stack.(d)]; [visit] returns [pos.(v)] and leaves
   [d] in [s.top], or returns -1. *)
let white = 0
and active = 1
and finished = 2

type search = {
  g : graph;
  colour : int array;
  stack : int array;
  pos : int array;
  mutable top : int;
}

let rec visit s d v =
  s.colour.(v) <- active;
  s.stack.(d) <- v;
  s.pos.(v) <- d;
  successors s d v s.g.first.(v)

and successors s d v i =
  if i = s.g.first.(v + 1) then begin
    s.colour.(v) <- finished;
    -1
  end
  else
    let u = s.g.succ.(i) in
    let c = s.colour.(u) in
    if c = active then begin
      s.top <- d;
      s.pos.(u)
    end
    else if c = finished then successors s d v (i + 1)
    else
      match visit s (d + 1) u with -1 -> successors s d v (i + 1) | start -> start

let rec roots s r =
  if r = Array.length s.colour then -1
  else if s.colour.(r) <> white then roots s (r + 1)
  else match visit s 0 r with -1 -> roots s (r + 1) | start -> start

let search g =
  let n = Array.length g.first - 1 in
  { g; colour = Array.make n white; stack = Array.make n 0; pos = Array.make n 0; top = 0 }

let cycle s start =
  List.init (s.top - start + 1) (fun i -> s.g.owners.(s.stack.(start + i)))

let find_cycle t =
  let s = search (ranked t) in
  match roots s 0 with -1 -> None | start -> Some (cycle s start)

(* Victim preference: abort a transaction rather than block a plain
   process, and among transactions the youngest (largest sequence number)
   — it has probably done the least work. *)
let prefer a b =
  match (a, b) with
  | Owner.Transaction x, Owner.Transaction y -> Txid.compare x y
  | Owner.Transaction _, Owner.Process _ -> 1
  | Owner.Process _, Owner.Transaction _ -> -1
  | Owner.Process x, Owner.Process y -> Pid.compare x y

(* One victim per cycle found, then search again without it. Most scans
   find no cycle, and whether there is one does not depend on the visit
   order, so the unranked graph answers them. Otherwise: a finished node
   reaches only an acyclic subgraph, and removing a victim only deletes
   edges, so finished nodes keep their colour across rounds; the path's
   active nodes go back to white, and the victim is coloured finished,
   which is how the search sees a removed node. *)
let victims t =
  if roots (search (interned t)) 0 = -1 then []
  else begin
    let s = search (ranked t) in
    let owner d = s.g.owners.(s.stack.(d)) in
    let rec go acc =
      match roots s 0 with
      | -1 -> List.rev acc
      | start ->
        let best = ref start in
        for d = start + 1 to s.top do
          if prefer (owner d) (owner !best) > 0 then best := d
        done;
        let victim = s.stack.(!best) in
        for d = 0 to s.top do
          s.colour.(s.stack.(d)) <- white
        done;
        s.colour.(victim) <- finished;
        go (s.g.owners.(victim) :: acc)
    in
    go []
  end
