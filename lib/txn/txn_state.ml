type phase = Active | Committing | Aborting | Finished

type txn = {
  txid : Txid.t;
  mutable top_pid : Pid.t;
  mutable live_members : int;
  mutable file_list : (File_id.t * int) list;
  mutable phase : phase;
}

type t = { mutable txns : txn Txid.Map.t }

let create () = { txns = Txid.Map.empty }

let start t ~txid ~top_pid =
  let txn = { txid; top_pid; live_members = 1; file_list = []; phase = Active } in
  t.txns <- Txid.Map.add txid txn t.txns;
  txn

let find t txid = Txid.Map.find_opt txid t.txns

let remove t txid = t.txns <- Txid.Map.remove txid t.txns
let active t = List.map snd (Txid.Map.bindings t.txns)

let adopt t txn = t.txns <- Txid.Map.add txn.txid txn t.txns

let release t txid =
  let txn = find t txid in
  remove t txid;
  txn

let member_joined t txid =
  match find t txid with
  | Some txn -> txn.live_members <- txn.live_members + 1
  | None -> ()

let member_exited t txid =
  match find t txid with
  | Some txn -> txn.live_members <- max 0 (txn.live_members - 1)
  | None -> ()

let merge_files txn files =
  List.iter
    (fun (fid, site) ->
      if not (List.exists (fun (f, _) -> File_id.equal f fid) txn.file_list) then
        txn.file_list <- (fid, site) :: txn.file_list)
    files

let crash t = t.txns <- Txid.Map.empty
