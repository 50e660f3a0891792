type entry = {
  intentions : Intentions.t list;
  log_refs : (int * int) list;  (* vid, log index *)
  coordinator_site : int;
}

type t = {
  store : Filestore.t;
  mutable per_file_log : bool;
  mutable prepared : (Txid.t * entry) list;
}

let create store = { store; per_file_log = false; prepared = [] }
let filestore t = t.store
let set_prepare_log_per_file t v = t.per_file_log <- v

let find t txid =
  List.find_opt (fun (tx, _) -> Txid.equal tx txid) t.prepared |> Option.map snd

let is_prepared t txid = find t txid <> None
let prepared_transactions t = List.map fst t.prepared

let prepared_intentions t txid =
  match find t txid with Some e -> e.intentions | None -> []

let prepared_files t txid =
  prepared_intentions t txid |> List.map (fun it -> it.Intentions.fid)

let coordinator_of t txid = find t txid |> Option.map (fun e -> e.coordinator_site)

let remove t txid =
  t.prepared <- List.filter (fun (tx, _) -> not (Txid.equal tx txid)) t.prepared

let prepare t ~txid ~coordinator_site ~files =
  let owner = Owner.Transaction txid in
  (* Flush this transaction's dirty pages on each locally stored file; a
     file the transaction only read yields no intentions and costs no
     prepare I/O (Figure 5: only intrinsic data I/O repeats). *)
  let intentions =
    List.filter_map
      (fun fid ->
        if not (Filestore.is_open t.store fid) then None
        else begin
          let it = Filestore.prepare t.store fid ~owner in
          if it.Intentions.pages = [] then None else Some it
        end)
      files
  in
  (* One prepare record per volume (or per file under the footnote-10
     ablation), on the same medium as the data it describes (§4.4). *)
  let groups =
    if t.per_file_log then List.map (fun it -> [ it ]) intentions
    else begin
      let by_vid = Hashtbl.create 4 in
      List.iter
        (fun it ->
          let vid = it.Intentions.fid.File_id.vid in
          let cur = try Hashtbl.find by_vid vid with Not_found -> [] in
          Hashtbl.replace by_vid vid (it :: cur))
        intentions;
      Hashtbl.fold (fun _ its acc -> List.rev its :: acc) by_vid []
    end
  in
  let log_refs =
    List.filter_map
      (fun its ->
        match its with
        | [] -> None
        | first :: _ ->
          let vid = first.Intentions.fid.File_id.vid in
          let vol =
            match Filestore.volume t.store ~vid with
            | Some v -> v
            | None -> invalid_arg "Participant.prepare: volume not mounted"
          in
          let record =
            Log_record.Prepare
              {
                Log_record.txid;
                coordinator_site;
                intentions = its;
                locked = List.map (fun it -> it.Intentions.fid) its;
              }
          in
          let idx =
            Volume.log_append vol ~tag:Log_record.prepare_tag (Log_record.encode record)
          in
          Some (vid, idx))
      groups
  in
  remove t txid;
  t.prepared <- (txid, { intentions; log_refs; coordinator_site }) :: t.prepared;
  true

let drop_log_refs t entry =
  List.iter
    (fun (vid, idx) ->
      match Filestore.volume t.store ~vid with
      | Some vol -> Volume.log_delete vol idx
      | None -> ())
    entry.log_refs

let commit t ~txid =
  match find t txid with
  | None -> ()  (* duplicate commit message: already finished here (§4.4) *)
  | Some entry ->
    List.iter (Filestore.commit_prepared t.store) entry.intentions;
    drop_log_refs t entry;
    remove t txid

let abort t ~txid =
  match find t txid with
  | None -> ()
  | Some entry ->
    List.iter
      (fun it ->
        let fid = it.Intentions.fid in
        if Filestore.is_open t.store fid then
          (* Volatile state survives: full §5.2 record rollback (also frees
             the flushed shadow slots). *)
          Filestore.abort t.store fid ~owner:(Owner.Transaction txid)
        else Filestore.abort_prepared t.store it)
      entry.intentions;
    drop_log_refs t entry;
    remove t txid

let recover t =
  t.prepared <- [];
  let in_doubt = ref [] in
  List.iter
    (fun vol ->
      List.iter
        (fun (idx, tag, payload) ->
          if tag = Log_record.prepare_tag then begin
            let (_ : Bytes.t) = Volume.read_page vol 0 in
            match Log_record.decode payload with
            | Some (Log_record.Prepare p) ->
              let txid = p.Log_record.txid in
              let entry =
                match find t txid with
                | Some e ->
                  {
                    e with
                    intentions = e.intentions @ p.Log_record.intentions;
                    log_refs = (Volume.vid vol, idx) :: e.log_refs;
                  }
                | None ->
                  {
                    intentions = p.Log_record.intentions;
                    log_refs = [ (Volume.vid vol, idx) ];
                    coordinator_site = p.Log_record.coordinator_site;
                  }
              in
              remove t txid;
              t.prepared <- (txid, entry) :: t.prepared;
              if
                not
                  (List.exists (fun (tx, _) -> Txid.equal tx txid) !in_doubt)
              then in_doubt := (txid, p.Log_record.coordinator_site) :: !in_doubt
            | Some (Log_record.Coordinator _) | None -> ()
          end)
        (Volume.log_records vol))
    (Filestore.volumes t.store);
  List.rev !in_doubt

let crash t = t.prepared <- []
