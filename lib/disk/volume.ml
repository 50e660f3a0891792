type inode = {
  ino : int;
  size : int;
  pages : int array;
  gens : int array;
  version : int;
}

(* One group-commit participant: [work] installs its log records (no I/O
   of its own — the batch pays one shared force), [done_] wakes the
   submitting fiber once the force has landed. *)
type group_item = { work : unit -> unit; done_ : unit Engine.Ivar.t }

type t = {
  engine : Engine.t;
  vid : int;
  page_size : int;
  store : (int, Bytes.t) Hashtbl.t;  (* non-volatile data pages *)
  inodes : (int, inode) Hashtbl.t;  (* non-volatile inode table *)
  mutable next_page : int;
  mutable free_pages : int list;
  mutable next_inode : int;
  log : (int, string * string) Hashtbl.t;  (* live [(tag, payload)] by index *)
  mutable next_log_idx : int;
  mutable busy_until : int;  (* disk head horizon: I/Os serialize *)
  mutable two_write_log : bool;
  mutable reads : int;
  mutable writes : int;
  mutable log_writes : int;
  group : group_item Locus_batch.Batcher.t;  (* group-commit window *)
  mutable group_trace : size:int -> (unit -> unit) -> unit;
}

let create engine ~vid ?(page_size = 1024) () =
  if page_size <= 0 then invalid_arg "Volume.create: non-positive page size";
  {
    engine;
    vid;
    page_size;
    store = Hashtbl.create 256;
    inodes = Hashtbl.create 64;
    next_page = 0;
    free_pages = [];
    next_inode = 1;
    log = Hashtbl.create 16;
    next_log_idx = 0;
    busy_until = 0;
    two_write_log = false;
    reads = 0;
    writes = 0;
    log_writes = 0;
    group = Locus_batch.Batcher.create engine ~name:(Printf.sprintf "grpcommit@vol%d" vid);
    group_trace = (fun ~size:_ k -> k ());
  }

let vid t = t.vid
let page_size t = t.page_size
let engine t = t.engine

(* One disk I/O: wait for the head, then seek+transfer. Serializing through
   [busy_until] models contention on the single spindle. *)
let io t ~kind ~bytes =
  let dur = Costs.disk_io_us (Engine.costs t.engine) ~bytes in
  let start = max (Engine.now t.engine) t.busy_until in
  let finish = start + dur in
  t.busy_until <- finish;
  Stats.incr (Engine.stats t.engine) ("disk.io." ^ kind);
  Engine.sleep (finish - Engine.now t.engine)

let alloc_page t =
  match t.free_pages with
  | p :: rest ->
    t.free_pages <- rest;
    p
  | [] ->
    let p = t.next_page in
    t.next_page <- t.next_page + 1;
    p

let free_page t p = t.free_pages <- p :: t.free_pages
let pages_in_use t = t.next_page - List.length t.free_pages

let blank t = Bytes.make t.page_size '\000'

let read_page_nosim t p =
  match Hashtbl.find_opt t.store p with
  | Some b -> Bytes.copy b
  | None -> blank t

let read_page t p =
  t.reads <- t.reads + 1;
  io t ~kind:"read" ~bytes:t.page_size;
  read_page_nosim t p

let write_page t p b =
  let page = blank t in
  Bytes.blit b 0 page 0 (min (Bytes.length b) t.page_size);
  t.writes <- t.writes + 1;
  io t ~kind:"write" ~bytes:t.page_size;
  Hashtbl.replace t.store p page

let alloc_inode t =
  let ino = t.next_inode in
  t.next_inode <- t.next_inode + 1;
  ino

let read_inode_nosim t ino =
  match Hashtbl.find_opt t.inodes ino with
  | Some i -> { i with pages = Array.copy i.pages; gens = Array.copy i.gens }
  | None -> raise Not_found

let read_inode t ino =
  t.reads <- t.reads + 1;
  io t ~kind:"read" ~bytes:t.page_size;
  read_inode_nosim t ino

let write_inode t inode =
  t.writes <- t.writes + 1;
  io t ~kind:"write" ~bytes:t.page_size;
  let prev_version =
    match Hashtbl.find_opt t.inodes inode.ino with
    | Some old -> old.version
    | None -> 0
  in
  (* Keep the allocator ahead of inodes installed directly (replica
     propagation writes an inode the local allocator never handed out). *)
  t.next_inode <- max t.next_inode (inode.ino + 1);
  Hashtbl.replace t.inodes inode.ino
    {
      inode with
      pages = Array.copy inode.pages;
      gens = Array.copy inode.gens;
      version = prev_version + 1;
    }

(* Install an inode at exactly [inode.version] — no auto-bump. Used when a
   secondary replica mirrors the primary's committed state: the version
   number is the primary's commit counter and must survive verbatim so
   version arithmetic (dup / next / gap) stays meaningful. *)
let install_inode t inode =
  t.writes <- t.writes + 1;
  io t ~kind:"write" ~bytes:t.page_size;
  t.next_inode <- max t.next_inode (inode.ino + 1);
  Hashtbl.replace t.inodes inode.ino
    { inode with pages = Array.copy inode.pages; gens = Array.copy inode.gens }

let inode_version_nosim t ino =
  match Hashtbl.find_opt t.inodes ino with Some i -> i.version | None -> 0

let inode_numbers t =
  Hashtbl.fold (fun ino _ acc -> ino :: acc) t.inodes [] |> List.sort Int.compare

let inode_exists t ino = Hashtbl.mem t.inodes ino

let log_io t =
  t.log_writes <- t.log_writes + 1;
  io t ~kind:"log" ~bytes:t.page_size

(* Record installation without the force — the group-commit flush pays
   one shared [log_io] for the whole batch, then installs each member's
   records in submission order. Indices are assigned at install time so
   the on-disk order matches the flush order deterministically. *)
let append_record t ~tag payload =
  let idx = t.next_log_idx in
  t.next_log_idx <- idx + 1;
  Hashtbl.replace t.log idx (tag, payload);
  idx

let overwrite_record t idx ~tag payload =
  if not (Hashtbl.mem t.log idx) then invalid_arg "Volume.log_overwrite: no such record";
  Hashtbl.replace t.log idx (tag, payload)

(* Flush one group-commit batch: a single shared force (two with the
   footnote-9 ablation), then install every member's records and wake the
   waiters. Nothing is installed before the force completes, so a crash
   anywhere inside the window or the force loses the whole batch
   atomically — same guarantee as an unforced redo record. *)
let group_flush t items =
  let n = List.length items in
  let st = Engine.stats t.engine in
  Stats.hist st "commit.batch_size" n;
  Stats.incr st "log.group_forces";
  if n > 1 then Stats.add st "log.forces_saved" (n - 1);
  t.group_trace ~size:n (fun () ->
      log_io t;
      if t.two_write_log then log_io t;
      List.iter (fun it -> it.work ()) items;
      List.iter (fun it -> ignore (Engine.try_fill t.engine it.done_ ())) items)

let group_submit t work =
  let done_ = Engine.Ivar.create () in
  Locus_batch.Batcher.submit t.group ~flush:(group_flush t) { work; done_ };
  Engine.await done_

let set_group_commit t ~site ~window_us =
  Locus_batch.Batcher.configure t.group ~site ~window_us

let set_group_trace t f = t.group_trace <- f
let reset_group_commit t = Locus_batch.Batcher.reset t.group

let log_append t ~tag payload =
  if Locus_batch.Batcher.enabled t.group then begin
    let r = ref (-1) in
    group_submit t (fun () -> r := append_record t ~tag payload);
    !r
  end
  else begin
    (* Unbatched: reserve the index, force, and only then install — a
       crash during the force must lose the record. *)
    let idx = t.next_log_idx in
    t.next_log_idx <- idx + 1;
    log_io t;
    if t.two_write_log then log_io t;
    Hashtbl.replace t.log idx (tag, payload);
    idx
  end

(* Append several records under a single submission: batched, the whole
   group shares one force with whatever else joined the window (the redo
   log uses this so a multi-page commit record is one group-commit member,
   not [log_pages] of them); unbatched it degrades to one force per
   record, today's behaviour. *)
let log_append_many t ~tag payloads =
  if Locus_batch.Batcher.enabled t.group then begin
    let r = ref [] in
    group_submit t (fun () ->
        r := List.map (fun p -> append_record t ~tag p) payloads);
    !r
  end
  else List.map (fun p -> log_append t ~tag p) payloads

let log_overwrite t idx ~tag payload =
  if Locus_batch.Batcher.enabled t.group then
    group_submit t (fun () -> overwrite_record t idx ~tag payload)
  else begin
    log_io t;
    overwrite_record t idx ~tag payload
  end

let log_records t =
  Hashtbl.fold (fun idx (tag, payload) acc -> (idx, tag, payload) :: acc) t.log []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let log_delete t idx = Hashtbl.remove t.log idx

let set_two_write_log t v = t.two_write_log <- v
let io_reads t = t.reads
let io_writes t = t.writes
let io_log_writes t = t.log_writes

let reset_io_counters t =
  t.reads <- 0;
  t.writes <- 0;
  t.log_writes <- 0
