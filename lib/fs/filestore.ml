exception Conflicting_write of File_id.t * Owner.t * Owner.t

(* Per-owner modified ranges are kept page-relative: the differencing
   commit and abort both operate a page at a time. *)
type page_state = {
  index : int;
  mutable current : Bytes.t;
  mutable mods : (Owner.t * Range_set.t) list;
}

type open_file = {
  fid : File_id.t;
  vol : Volume.t;
  mutable inode : Volume.inode;
  pstates : (int, page_state) Hashtbl.t;
  mutable extents : (Owner.t * int) list;
  mutable prepared : Intentions.t list;
  mutable refcount : int;
}

(* Commit and abort application for one file must be serialized: the
   read-merge-write-inode sequence yields at every disk I/O, and two
   interleaved applications would clobber each other's inode update. *)
type gate = { mutable held : bool; mutable queue : unit Engine.Ivar.t list }

type t = {
  engine : Engine.t;
  cache : Cache.t;
  volumes : (int, Volume.t) Hashtbl.t;
  files : (File_id.t, open_file) Hashtbl.t;
  gates : (File_id.t, gate) Hashtbl.t;
}

let create engine ~cache =
  {
    engine;
    cache;
    volumes = Hashtbl.create 8;
    files = Hashtbl.create 32;
    gates = Hashtbl.create 16;
  }

let gate_release t g =
  match g.queue with
  | [] -> g.held <- false
  | iv :: rest ->
    g.queue <- rest;
    (* Ownership passes directly to the next waiter. *)
    Engine.fill t.engine iv ()

let with_gate t fid fn =
  let g =
    match Hashtbl.find_opt t.gates fid with
    | Some g -> g
    | None ->
      let g = { held = false; queue = [] } in
      Hashtbl.replace t.gates fid g;
      g
  in
  (if g.held then begin
     let iv = Engine.Ivar.create () in
     g.queue <- g.queue @ [ iv ];
     try Engine.await iv
     with e ->
       (* The await only resumes when ownership was handed to us; if we
          are unwinding (our fiber was killed while queued), pass the
          gate straight on or it wedges every later commit on the file. *)
       gate_release t g;
       raise e
   end
   else g.held <- true);
  Fun.protect fn ~finally:(fun () -> gate_release t g)

let engine t = t.engine

let mount t vol =
  if Hashtbl.mem t.volumes (Volume.vid vol) then
    invalid_arg "Filestore.mount: volume already mounted";
  Hashtbl.replace t.volumes (Volume.vid vol) vol

let volume t ~vid = Hashtbl.find_opt t.volumes vid
let volumes t = Hashtbl.fold (fun _ v acc -> v :: acc) t.volumes []

let vol_exn t fid =
  match Hashtbl.find_opt t.volumes fid.File_id.vid with
  | Some v -> v
  | None -> invalid_arg "Filestore: volume not mounted at this site"

let file_exists t fid =
  match volume t ~vid:fid.File_id.vid with
  | None -> false
  | Some vol -> Volume.inode_exists vol fid.File_id.ino

let is_open t fid = Hashtbl.mem t.files fid

let get_exn t fid =
  match Hashtbl.find_opt t.files fid with
  | Some f -> f
  | None -> invalid_arg "Filestore: file not open"

let costs t = Engine.costs t.engine
let stats t = Engine.stats t.engine

(* Committed slot of logical page [index], -1 for holes / beyond EOF. *)
let committed_slot inode index =
  if index < Array.length inode.Volume.pages then inode.Volume.pages.(index) else -1

(* Commit generation of logical page [index]: how many commits have
   installed it. *)
let committed_gen inode index =
  if index < Array.length inode.Volume.gens then inode.Volume.gens.(index) else 0

(* A copy of [a] with at least [n] entries, the new ones [fill]. *)
let extended a n fill =
  if n <= Array.length a then Array.copy a
  else begin
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let blank vol = Bytes.make (Volume.page_size vol) '\000'

let committed_page_content t vol inode index =
  match committed_slot inode index with
  | -1 -> blank vol
  | slot -> Cache.read t.cache vol slot

let create_file t ~vid =
  match volume t ~vid with
  | None -> invalid_arg "Filestore.create_file: volume not mounted"
  | Some vol ->
    let ino = Volume.alloc_inode vol in
    Volume.write_inode vol
      { Volume.ino; size = 0; pages = [||]; gens = [||]; version = 0 };
    File_id.make ~vid ~ino

let open_file t fid =
  match Hashtbl.find_opt t.files fid with
  | Some f -> f.refcount <- f.refcount + 1
  | None -> (
    let vol = vol_exn t fid in
    if not (Volume.inode_exists vol fid.File_id.ino) then raise Not_found;
    let inode = Volume.read_inode vol fid.File_id.ino in
    (* The inode read yields: a concurrent opener may have installed the
       in-core state meanwhile. Never clobber it — that would lose its
       volatile modifications. *)
    match Hashtbl.find_opt t.files fid with
    | Some f -> f.refcount <- f.refcount + 1
    | None ->
      Hashtbl.replace t.files fid
        {
          fid;
          vol;
          inode;
          pstates = Hashtbl.create 8;
          extents = [];
          prepared = [];
          refcount = 1;
        })

let has_uncommitted_of f =
  f.prepared <> []
  || Hashtbl.fold (fun _ ps acc -> acc || ps.mods <> []) f.pstates false

let has_uncommitted t fid =
  match Hashtbl.find_opt t.files fid with
  | None -> false
  | Some f -> has_uncommitted_of f

let close_file t fid =
  match Hashtbl.find_opt t.files fid with
  | None -> ()
  | Some f ->
    f.refcount <- max 0 (f.refcount - 1);
    if f.refcount = 0 && not (has_uncommitted_of f) then Hashtbl.remove t.files fid

let committed_size t fid =
  match Hashtbl.find_opt t.files fid with
  | Some f -> f.inode.Volume.size
  | None ->
    let vol = vol_exn t fid in
    (Volume.read_inode_nosim vol fid.File_id.ino).Volume.size

let size t fid =
  match Hashtbl.find_opt t.files fid with
  | None -> committed_size t fid
  | Some f ->
    List.fold_left (fun acc (_, e) -> max acc e) f.inode.Volume.size f.extents

(* Iterate the page-relative pieces of a file-relative byte range. *)
let iter_pages ~page_size ~pos ~len f =
  if len > 0 then begin
    let first = pos / page_size and last = (pos + len - 1) / page_size in
    for index = first to last do
      let page_base = index * page_size in
      let lo = max pos page_base - page_base in
      let hi = min (pos + len) (page_base + page_size) - page_base in
      f ~index ~page_lo:lo ~page_hi:hi ~buf_off:(page_base + lo - pos)
    done
  end

let ensure_pstate t f index =
  match Hashtbl.find_opt f.pstates index with
  | Some ps -> ps
  | None ->
    let current = committed_page_content t f.vol f.inode index in
    let ps = { index; current; mods = [] } in
    Hashtbl.replace f.pstates index ps;
    ps

let read t fid ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "Filestore.read: negative pos/len";
  let f = get_exn t fid in
  let page_size = Volume.page_size f.vol in
  Engine.consume t.engine ~instr:((costs t).Costs.rw_base_instr + Costs.copy_instr (costs t) ~bytes:len);
  let out = Bytes.make len '\000' in
  iter_pages ~page_size ~pos ~len (fun ~index ~page_lo ~page_hi ~buf_off ->
      let content =
        match Hashtbl.find_opt f.pstates index with
        | Some ps -> ps.current
        | None ->
          if committed_slot f.inode index = -1 then blank f.vol
          else committed_page_content t f.vol f.inode index
      in
      Bytes.blit content page_lo out buf_off (page_hi - page_lo));
  out

let read_committed t fid ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "Filestore.read_committed: negative pos/len";
  let f = get_exn t fid in
  let page_size = Volume.page_size f.vol in
  let out = Bytes.make len '\000' in
  iter_pages ~page_size ~pos ~len (fun ~index ~page_lo ~page_hi ~buf_off ->
      let content = committed_page_content t f.vol f.inode index in
      Bytes.blit content page_lo out buf_off (page_hi - page_lo));
  out

(* Committed state accessors that work whether or not the file is open
   in-core — replica propagation and reconciliation run at storage sites
   where no client ever opened the file. *)
let committed_inode_opt t fid =
  match Hashtbl.find_opt t.files fid with
  | Some f -> Some f.inode
  | None ->
    let vol = vol_exn t fid in
    if Volume.inode_exists vol fid.File_id.ino then
      Some (Volume.read_inode_nosim vol fid.File_id.ino)
    else None

let committed_version t fid =
  match committed_inode_opt t fid with
  | Some i -> i.Volume.version
  | None -> 0

let committed_page_indices t fid =
  match committed_inode_opt t fid with
  | None -> []
  | Some inode ->
    let acc = ref [] in
    Array.iteri
      (fun i slot -> if slot <> -1 then acc := i :: !acc)
      inode.Volume.pages;
    List.rev !acc

let committed_page t fid index =
  match committed_inode_opt t fid with
  | None -> None
  | Some inode -> (
    match committed_slot inode index with
    | -1 -> None
    | slot -> Some (Cache.read t.cache (vol_exn t fid) slot))

let read_committed_any t fid ~pos ~len =
  if pos < 0 || len < 0 then
    invalid_arg "Filestore.read_committed_any: negative pos/len";
  let vol = vol_exn t fid in
  let inode =
    match committed_inode_opt t fid with
    | Some i -> i
    | None -> raise Not_found
  in
  let page_size = Volume.page_size vol in
  Engine.consume t.engine
    ~instr:((costs t).Costs.rw_base_instr + Costs.copy_instr (costs t) ~bytes:len);
  let out = Bytes.make len '\000' in
  iter_pages ~page_size ~pos ~len (fun ~index ~page_lo ~page_hi ~buf_off ->
      let content = committed_page_content t vol inode index in
      Bytes.blit content page_lo out buf_off (page_hi - page_lo));
  out

let owner_ranges ps owner =
  match List.assoc_opt owner ps.mods with
  | Some r -> r
  | None -> Range_set.empty

let owner_extent f owner =
  match List.assoc_opt owner f.extents with Some e -> e | None -> 0

let set_owner_ranges ps owner rs =
  let rest = List.filter (fun (o, _) -> not (Owner.equal o owner)) ps.mods in
  ps.mods <- (if Range_set.is_empty rs then rest else (owner, rs) :: rest)

let write t fid ~owner ~pos data =
  if pos < 0 then invalid_arg "Filestore.write: negative pos";
  let len = Bytes.length data in
  if len > 0 then begin
    let f = get_exn t fid in
    let page_size = Volume.page_size f.vol in
    Engine.consume t.engine
      ~instr:((costs t).Costs.rw_base_instr + Costs.copy_instr (costs t) ~bytes:len);
    (* First pass: policy check — different owners may never have
       overlapping uncommitted bytes on a page (footnote 6). *)
    iter_pages ~page_size ~pos ~len (fun ~index ~page_lo ~page_hi ~buf_off:_ ->
        match Hashtbl.find_opt f.pstates index with
        | None -> ()
        | Some ps ->
          let r = Byte_range.v ~lo:page_lo ~hi:page_hi in
          List.iter
            (fun (o, rs) ->
              if (not (Owner.equal o owner)) && Range_set.overlaps r rs then
                raise (Conflicting_write (fid, owner, o)))
            ps.mods);
    iter_pages ~page_size ~pos ~len (fun ~index ~page_lo ~page_hi ~buf_off ->
        let ps = ensure_pstate t f index in
        Bytes.blit data buf_off ps.current page_lo (page_hi - page_lo);
        let r = Byte_range.v ~lo:page_lo ~hi:page_hi in
        set_owner_ranges ps owner (Range_set.add r (owner_ranges ps owner)));
    let extent = pos + len in
    f.extents <-
      (owner, max (owner_extent f owner) extent)
      :: List.filter (fun (o, _) -> not (Owner.equal o owner)) f.extents
  end

let modified_by t fid owner =
  match Hashtbl.find_opt t.files fid with
  | None -> []
  | Some f ->
    let page_size = Volume.page_size f.vol in
    Hashtbl.fold
      (fun index ps acc ->
        let base = index * page_size in
        Range_set.fold
          (fun r acc ->
            Byte_range.v ~lo:(base + Byte_range.lo r) ~hi:(base + Byte_range.hi r)
            :: acc)
          (owner_ranges ps owner) acc)
      f.pstates []
    |> List.sort Byte_range.compare

let uncommitted_overlapping t fid range =
  match Hashtbl.find_opt t.files fid with
  | None -> []
  | Some f ->
    let page_size = Volume.page_size f.vol in
    let owners =
      Hashtbl.fold
        (fun index ps acc ->
          let base = index * page_size in
          let page_range =
            Byte_range.inter range
              (Byte_range.v ~lo:base ~hi:(base + page_size))
          in
          match page_range with
          | None -> acc
          | Some pr ->
            let rel =
              Byte_range.v ~lo:(Byte_range.lo pr - base) ~hi:(Byte_range.hi pr - base)
            in
            List.fold_left
              (fun acc (o, rs) ->
                if Range_set.overlaps rel rs then Owner.Set.add o acc else acc)
              acc ps.mods)
        f.pstates Owner.Set.empty
    in
    Owner.Set.elements owners

let adopt t fid ~range ~new_owner =
  match Hashtbl.find_opt t.files fid with
  | None -> ()
  | Some f ->
    let page_size = Volume.page_size f.vol in
    Hashtbl.iter
      (fun index ps ->
        let base = index * page_size in
        match
          Byte_range.inter range (Byte_range.v ~lo:base ~hi:(base + page_size))
        with
        | None -> ()
        | Some pr ->
          let rel =
            Byte_range.v ~lo:(Byte_range.lo pr - base) ~hi:(Byte_range.hi pr - base)
          in
          let adopted = ref Range_set.empty in
          List.iter
            (fun (o, rs) ->
              if (not (Owner.equal o new_owner)) && not (Owner.is_transaction o)
              then begin
                let moved = Range_set.inter rs (Range_set.of_range rel) in
                if not (Range_set.is_empty moved) then begin
                  set_owner_ranges ps o (Range_set.diff rs moved);
                  adopted := Range_set.union !adopted moved
                end
              end)
            ps.mods;
          if not (Range_set.is_empty !adopted) then begin
            set_owner_ranges ps new_owner
              (Range_set.union (owner_ranges ps new_owner) !adopted);
            (* The adopter also inherits responsibility for the file extent
               covering the adopted bytes. *)
            let hi_byte =
              Range_set.fold (fun r acc -> max acc (base + Byte_range.hi r)) !adopted 0
            in
            f.extents <-
              (new_owner, max (owner_extent f new_owner) hi_byte)
              :: List.filter (fun (o, _) -> not (Owner.equal o new_owner)) f.extents
          end)
      f.pstates

let prepare t fid ~owner =
  let f = get_exn t fid in
  let dirty =
    Hashtbl.fold
      (fun index ps acc ->
        if Range_set.is_empty (owner_ranges ps owner) then acc
        else (index, ps) :: acc)
      f.pstates []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let pages =
    List.map
      (fun (index, ps) ->
        Engine.consume t.engine ~instr:(costs t).Costs.flush_page_instr;
        let slot = Volume.alloc_page f.vol in
        Volume.write_page f.vol slot ps.current;
        Cache.put t.cache f.vol slot ps.current;
        let sole =
          List.for_all (fun (o, _) -> Owner.equal o owner) ps.mods
        in
        let ranges =
          Range_set.ranges (owner_ranges ps owner)
          |> List.map (fun r -> (Byte_range.lo r, Byte_range.len r))
        in
        {
          Intentions.index;
          slot;
          base_slot = committed_slot f.inode index;
          gen = committed_gen f.inode index;
          ranges;
          sole;
        })
      dirty
  in
  let new_size =
    if pages = [] then f.inode.Volume.size
    else max f.inode.Volume.size (owner_extent f owner)
  in
  let it = { Intentions.fid; owner; new_size; pages } in
  f.prepared <- it :: f.prepared;
  it

(* Clean up an owner's volatile bookkeeping after its update committed:
   its bytes are now part of the committed state, so its mod ranges and
   extent entry disappear; pages nobody else modified revert to plain
   cached pages. *)
let forget_owner_volatile f owner =
  let drop =
    Hashtbl.fold
      (fun index ps acc ->
        set_owner_ranges ps owner Range_set.empty;
        if ps.mods = [] then index :: acc else acc)
      f.pstates []
  in
  List.iter (Hashtbl.remove f.pstates) drop;
  f.extents <- List.filter (fun (o, _) -> not (Owner.equal o owner)) f.extents;
  f.prepared <-
    List.filter (fun it -> not (Owner.equal it.Intentions.owner owner)) f.prepared

let commit_prepared_locked t (it : Intentions.t) =
  let fid = it.Intentions.fid in
  let vol = vol_exn t fid in
  let in_core = Hashtbl.find_opt t.files fid in
  Engine.consume t.engine ~instr:(costs t).Costs.commit_base_instr;
  let inode =
    match in_core with
    | Some f -> f.inode
    | None -> Volume.read_inode vol fid.File_id.ino
  in
  let max_index =
    List.fold_left (fun acc p -> max acc p.Intentions.index) (-1) it.Intentions.pages
  in
  let pages = extended inode.Volume.pages (max_index + 1) (-1) in
  let gens = extended inode.Volume.gens (Array.length pages) 0 in
  let freed = ref [] in
  List.iter
    (fun (p : Intentions.page_commit) ->
      let cur_slot = pages.(p.index) in
      if cur_slot = p.slot then
        (* Duplicate commit message (§4.4): already applied, nothing to do. *)
        Stats.incr (stats t) "commit.dup"
      else begin
        (* Slot numbers are reused, so the base slot alone cannot tell
           whether another commit installed the page since prepare. *)
        if p.sole && cur_slot = p.base_slot && gens.(p.index) = p.gen then begin
          (* Figure 4(a): the flushed shadow is the whole new page. *)
          Stats.incr (stats t) "commit.direct";
          pages.(p.index) <- p.slot
        end
        else begin
          (* Figure 4(b): re-read the previous version, transfer only this
             owner's ranges onto it, write the merged page back. *)
          Stats.incr (stats t) "commit.merge";
          let old_content =
            if cur_slot = -1 then blank vol else Cache.read t.cache vol cur_slot
          in
          let shadow = Cache.read t.cache vol p.slot in
          let merged = Bytes.copy old_content in
          let copied =
            List.fold_left
              (fun acc (off, len) ->
                Bytes.blit shadow off merged off len;
                acc + len)
              0 p.ranges
          in
          Engine.consume t.engine
            ~instr:
              ((costs t).Costs.commit_merge_instr
              + Costs.copy_instr (costs t) ~bytes:copied);
          Volume.write_page vol p.slot merged;
          Cache.put t.cache vol p.slot merged;
          pages.(p.index) <- p.slot
        end;
        gens.(p.index) <- gens.(p.index) + 1;
        if cur_slot <> -1 then freed := cur_slot :: !freed
      end)
    it.Intentions.pages;
  let new_inode =
    {
      inode with
      Volume.pages;
      gens;
      size = max inode.Volume.size it.Intentions.new_size;
    }
  in
  Volume.write_inode vol new_inode;
  List.iter (Volume.free_page vol) !freed;
  match in_core with
  | None -> ()
  | Some f ->
    f.inode <- Volume.read_inode_nosim vol fid.File_id.ino;
    forget_owner_volatile f it.Intentions.owner

let commit_prepared t it = with_gate t it.Intentions.fid (fun () -> commit_prepared_locked t it)

let abort_prepared t (it : Intentions.t) =
  let vol = vol_exn t it.Intentions.fid in
  (* Only safe when the intentions were never applied: recovery guarantees
     this by consulting the coordinator log outcome first. *)
  List.iter (Volume.free_page vol) (Intentions.slots it);
  match Hashtbl.find_opt t.files it.Intentions.fid with
  | None -> ()
  | Some f ->
    f.prepared <-
      List.filter
        (fun o -> not (Owner.equal o.Intentions.owner it.Intentions.owner))
        f.prepared

let abort_locked t fid ~owner =
  match Hashtbl.find_opt t.files fid with
  | None -> ()
  | Some f ->
    Stats.incr (stats t) "abort.file";
    (* Free any shadow slots this owner had already flushed at prepare. *)
    List.iter
      (fun it ->
        if Owner.equal it.Intentions.owner owner then
          List.iter (Volume.free_page f.vol) (Intentions.slots it))
      f.prepared;
    f.prepared <-
      List.filter (fun it -> not (Owner.equal it.Intentions.owner owner)) f.prepared;
    let drop = ref [] in
    Hashtbl.iter
      (fun index ps ->
        let mine = owner_ranges ps owner in
        if not (Range_set.is_empty mine) then begin
          let others = List.filter (fun (o, _) -> not (Owner.equal o owner)) ps.mods in
          if others = [] then
            (* No conflicting modification: roll the page back wholesale by
               dropping the working copy (§5.2). *)
            drop := index :: !drop
          else begin
            (* Conflicting modifications present: re-read the old version
               and overwrite only the aborted records (§5.2). *)
            let old_content = committed_page_content t f.vol f.inode index in
            let copied =
              Range_set.fold
                (fun r acc ->
                  let off = Byte_range.lo r and len = Byte_range.len r in
                  Bytes.blit old_content off ps.current off len;
                  acc + len)
                mine 0
            in
            Engine.consume t.engine ~instr:(Costs.copy_instr (costs t) ~bytes:copied);
            set_owner_ranges ps owner Range_set.empty
          end
        end)
      f.pstates;
    List.iter (Hashtbl.remove f.pstates) !drop;
    f.extents <- List.filter (fun (o, _) -> not (Owner.equal o owner)) f.extents

let abort t fid ~owner = with_gate t fid (fun () -> abort_locked t fid ~owner)

let commit t fid ~owner =
  let it = prepare t fid ~owner in
  commit_prepared t it;
  it

(* Install a versioned committed update pushed (or pulled) from the
   primary copy. Only ever moves forward: anything at or below the local
   version is a duplicate and is ignored. The inode is stored with the
   primary's version verbatim so version arithmetic keeps working. *)
let install_replica_locked t fid ~version ~size ~full ~pages =
  let vol = vol_exn t fid in
  let cur =
    match committed_inode_opt t fid with
    | Some i -> i
    | None ->
      { Volume.ino = fid.File_id.ino; size = 0; pages = [||]; gens = [||]; version = 0 }
  in
  if version <= cur.Volume.version then false
  else begin
    let max_index = List.fold_left (fun acc (i, _) -> max acc i) (-1) pages in
    let slots =
      if full then Array.make (max_index + 1) (-1)
      else extended cur.Volume.pages (max_index + 1) (-1)
    in
    let gens = extended cur.Volume.gens (Array.length slots) 0 in
    List.iter
      (fun (index, content) ->
        let prev =
          if index < Array.length cur.Volume.pages then cur.Volume.pages.(index)
          else -1
        in
        let slot = if prev = -1 then Volume.alloc_page vol else prev in
        Volume.write_page vol slot content;
        Cache.put t.cache vol slot content;
        slots.(index) <- slot;
        gens.(index) <- gens.(index) + 1)
      pages;
    if full then
      (* Slots of the old copy that the snapshot did not carry over. *)
      Array.iteri
        (fun i s ->
          if s <> -1 && (i > max_index || slots.(i) <> s) then
            Volume.free_page vol s)
        cur.Volume.pages;
    Volume.install_inode vol
      { Volume.ino = fid.File_id.ino; size; pages = slots; gens; version };
    (match Hashtbl.find_opt t.files fid with
    | Some f -> f.inode <- Volume.read_inode_nosim vol fid.File_id.ino
    | None -> ());
    Stats.incr (stats t) "replica.install";
    true
  end

let install_replica t fid ~version ~size ~full ~pages =
  with_gate t fid (fun () ->
      install_replica_locked t fid ~version ~size ~full ~pages)

let prepared_intentions t fid =
  match Hashtbl.find_opt t.files fid with None -> [] | Some f -> f.prepared

let crash t =
  Hashtbl.reset t.files;
  Hashtbl.reset t.gates
