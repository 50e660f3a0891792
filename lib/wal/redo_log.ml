type record = { r_fid : File_id.t; r_pos : int; r_data : string }

type image = { mutable data : Bytes.t; mutable size : int }

type t = {
  vol : Volume.t;
  mutable pending : (string * record list) list;  (* per owner, newest first *)
  images : (File_id.t, image) Hashtbl.t;  (* committed contents, volatile *)
  mutable dirty : (File_id.t * int) list;  (* pages needing in-place write *)
}

let wal_tag = "wal"
let magic = "WAL1:"

let create vol =
  { vol; pending = []; images = Hashtbl.create 16; dirty = [] }

let volume t = t.vol

let create_file t =
  let ino = Volume.alloc_inode t.vol in
  Volume.write_inode t.vol { Volume.ino; size = 0; pages = [||]; gens = [||]; version = 0 };
  let fid = File_id.make ~vid:(Volume.vid t.vol) ~ino in
  Hashtbl.replace t.images fid { data = Bytes.create 0; size = 0 };
  fid

let image t fid =
  match Hashtbl.find_opt t.images fid with
  | Some img -> img
  | None ->
    let img = { data = Bytes.create 0; size = 0 } in
    Hashtbl.replace t.images fid img;
    img

let ensure_capacity img n =
  if Bytes.length img.data < n then begin
    let cap = max n (max 256 (2 * Bytes.length img.data)) in
    let bigger = Bytes.make cap '\000' in
    Bytes.blit img.data 0 bigger 0 (Bytes.length img.data);
    img.data <- bigger
  end

let apply_to_image t fid ~pos data =
  let img = image t fid in
  let len = String.length data in
  ensure_capacity img (pos + len);
  Bytes.blit_string data 0 img.data pos len;
  img.size <- max img.size (pos + len);
  let psz = Volume.page_size t.vol in
  if len > 0 then
    for page = pos / psz to (pos + len - 1) / psz do
      if not (List.mem (fid, page) t.dirty) then t.dirty <- (fid, page) :: t.dirty
    done

let write t fid ~owner ~pos data =
  if pos < 0 then invalid_arg "Redo_log.write: negative pos";
  let r = { r_fid = fid; r_pos = pos; r_data = Bytes.to_string data } in
  match List.assoc_opt owner t.pending with
  | Some rs ->
    t.pending <- (owner, r :: rs) :: List.remove_assoc owner t.pending
  | None -> t.pending <- (owner, [ r ]) :: t.pending

let read_committed t fid ~pos ~len =
  let img = image t fid in
  let out = Bytes.make len '\000' in
  let avail = max 0 (min len (img.size - pos)) in
  if avail > 0 then Bytes.blit img.data pos out 0 avail;
  out

let read t fid ~pos ~len =
  let out = read_committed t fid ~pos ~len in
  (* Overlay buffered (uncommitted) writes, oldest first. *)
  List.iter
    (fun (_, rs) ->
      List.iter
        (fun r ->
          if File_id.equal r.r_fid fid then begin
            let rlen = String.length r.r_data in
            let lo = max pos r.r_pos and hi = min (pos + len) (r.r_pos + rlen) in
            if lo < hi then
              Bytes.blit_string r.r_data (lo - r.r_pos) out (lo - pos) (hi - lo)
          end)
        (List.rev rs))
    (List.rev t.pending);
  out

let header_bytes = 24

let commit t ~owner =
  match List.assoc_opt owner t.pending with
  | None -> 0
  | Some rs ->
    let records = List.rev rs in
    let psz = Volume.page_size t.vol in
    let bytes =
      List.fold_left (fun acc r -> acc + String.length r.r_data + header_bytes) 32
        records
    in
    let log_pages = max 1 ((bytes + psz - 1) / psz) in
    (* The whole batch (including the commit record) is encoded into the
       first appended page; the remaining appends model the additional log
       pages a large batch spans. *)
    let payload = magic ^ Marshal.to_string records [] in
    let pads = List.init (log_pages - 1) (fun _ -> magic ^ "pad") in
    (* One submission for the whole commit record: under group commit the
       payload and its pad pages share a single force (with whatever else
       joined the window); unbatched this is one force per page, exactly
       the old loop. *)
    let (_ : int list) = Volume.log_append_many t.vol ~tag:wal_tag (payload :: pads) in
    List.iter (fun r -> apply_to_image t r.r_fid ~pos:r.r_pos r.r_data) records;
    t.pending <- List.remove_assoc owner t.pending;
    log_pages

let abort t ~owner = t.pending <- List.remove_assoc owner t.pending

let dirty_pages t = List.length t.dirty

let checkpoint t =
  let psz = Volume.page_size t.vol in
  let by_fid = Hashtbl.create 8 in
  List.iter
    (fun (fid, page) ->
      let cur = try Hashtbl.find by_fid fid with Not_found -> [] in
      Hashtbl.replace by_fid fid (page :: cur))
    t.dirty;
  let ios = ref 0 in
  Hashtbl.iter
    (fun fid pages ->
      let img = image t fid in
      let inode =
        try Volume.read_inode_nosim t.vol fid.File_id.ino
        with Not_found ->
          { Volume.ino = fid.File_id.ino; size = 0; pages = [||]; gens = [||]; version = 0 }
      in
      let max_page = List.fold_left max 0 pages in
      let slots = Array.make (max (max_page + 1) (Array.length inode.Volume.pages)) (-1) in
      Array.blit inode.Volume.pages 0 slots 0 (Array.length inode.Volume.pages);
      List.iter
        (fun page ->
          let slot = if slots.(page) = -1 then Volume.alloc_page t.vol else slots.(page) in
          slots.(page) <- slot;
          let content = Bytes.make psz '\000' in
          let base = page * psz in
          let len = max 0 (min psz (img.size - base)) in
          if len > 0 then Bytes.blit img.data base content 0 len;
          Volume.write_page t.vol slot content;
          incr ios)
        (List.sort_uniq Int.compare pages);
      Volume.write_inode t.vol { inode with Volume.size = img.size; pages = slots };
      incr ios)
    by_fid;
  t.dirty <- [];
  (* Truncate the log: everything is on the data pages now. *)
  List.iter
    (fun (idx, tag, _) -> if tag = wal_tag then Volume.log_delete t.vol idx)
    (Volume.log_records t.vol);
  !ios

let crash t =
  t.pending <- [];
  t.dirty <- [];
  Hashtbl.reset t.images

let recover t =
  (* Rebuild images from the checkpointed on-disk state... *)
  let psz = Volume.page_size t.vol in
  List.iter
    (fun ino ->
      let inode = Volume.read_inode t.vol ino in
      let fid = File_id.make ~vid:(Volume.vid t.vol) ~ino in
      let img = { data = Bytes.make inode.Volume.size '\000'; size = inode.Volume.size } in
      Array.iteri
        (fun page slot ->
          if slot <> -1 then begin
            let content = Volume.read_page t.vol slot in
            let base = page * psz in
            let len = max 0 (min psz (inode.Volume.size - base)) in
            if len > 0 then Bytes.blit content 0 img.data base len
          end)
        inode.Volume.pages;
      Hashtbl.replace t.images fid img)
    (Volume.inode_numbers t.vol);
  (* ...then redo the committed-but-not-checkpointed records, in order. *)
  let replayed = ref 0 in
  List.iter
    (fun (_, tag, payload) ->
      if tag = wal_tag && String.length payload > String.length magic then begin
        let body = String.sub payload (String.length magic) (String.length payload - String.length magic) in
        if body <> "pad" then begin
          let records : record list = Marshal.from_string payload (String.length magic) in
          List.iter
            (fun r ->
              incr replayed;
              apply_to_image t r.r_fid ~pos:r.r_pos r.r_data)
            records
        end
      end)
    (Volume.log_records t.vol);
  !replayed
