module Process = Locus_proc.Process
module Proc_table = Locus_proc.Proc_table
module Otrace = Locus_otrace.Otrace

exception Error of string
exception Process_failure of string

type env = {
  cl : Kernel.cluster;
  mutable k : Kernel.t;
  mutable proc : Process.t;
  fiber : Engine.Fiber.handle option ref;
  (* Requesting-site cache of explicitly granted locks (§5.1): lets the
     kernel validate covered accesses locally instead of re-checking at
     the storage site. Purely a cost-model artifact here — enforcement
     always happens at the storage site. *)
  lock_cache : (int, (Byte_range.t * Mode.t) list) Hashtbl.t;
  (* Prefetched data (§5.2): per channel, ranges fetched with a lock grant
     and valid while that lock is held by this process. Reads inside a
     cached range are served locally; our own writes patch the copy. *)
  page_cache : (int, (Byte_range.t * Bytes.t) list) Hashtbl.t;
  (* Per-process name cache: resolved path -> file id. Name mapping is the
     expensive distributed step done once per file (§3.2); bindings never
     change (no rename/unlink in this system), so entries stay valid. *)
  name_cache : (string, File_id.t) Hashtbl.t;
  (* Files this process has written and not yet committed (or aborted).
     Such reads must see our own pending bytes, which only the primary's
     overlay holds — they are never served from a local secondary copy. *)
  written_fids : (File_id.t, unit) Hashtbl.t;
  (* Root span of the process's current top-level transaction, opened by
     [begin_trans] and closed at commit / abort / process exit. While
     open it sits at the bottom of the fiber's ambient span stack, so
     every syscall span of the transaction groups under one tree. *)
  mutable txn_span : Otrace.span option;
}

let pid env = env.proc.Process.pid
let site env = Kernel.site env.k
let cluster env = env.cl
let in_transaction env = env.proc.Process.txid <> None
let engine env = Kernel.engine env.cl
let costs env = Engine.costs (engine env)
let stats env = Engine.stats (engine env)
let syscall env = Engine.consume (engine env) ~instr:(costs env).Costs.syscall_instr

(* Run a syscall body inside a span when a collector is installed — the
   same single option test as [Kernel.observe], so the common no-collector
   case costs nothing. *)
let with_syscall env name f =
  match Kernel.otracer env.cl with
  | None -> f ()
  | Some otr -> Otrace.with_span otr ~site:(site env) ~cat:"syscall" name f

let open_txn_span env txid =
  match Kernel.otracer env.cl with
  | None -> ()
  | Some otr ->
    env.txn_span <-
      Some
        (Otrace.start otr ~site:(site env) ~cat:"txn" "txn"
           ~args:[ ("txid", Fmt.str "%a" Txid.pp txid) ])

let close_txn_span env outcome =
  match (env.txn_span, Kernel.otracer env.cl) with
  | Some sp, Some otr ->
    env.txn_span <- None;
    Otrace.finish otr sp ~args:[ ("outcome", outcome) ]
  | (Some _ | None), _ -> env.txn_span <- None

let chan_exn env c =
  match Process.channel env.proc c with
  | Some ch -> ch
  | None -> raise (Error (Printf.sprintf "bad channel %d" c))

let owner env = Process.owner env.proc

let rpc_storage env fid msg =
  let dst = Kernel.storage_site env.cl fid in
  Kernel.rpc env.cl ~src:(site env) ~dst msg

(* A reachable replica host when a partition hides the current primary;
   [None] when the primary is reachable (or nothing else is). Election
   only moves the primary off a {e crashed} site — a partitioned one
   stays primary for its own side, so read-side failover has to route
   around it explicitly (§5.2). *)
let reachable_secondary env fid =
  let s = site env in
  let net = Kernel.transport env.cl in
  let primary = Kernel.storage_site env.cl fid in
  if Transport.reachable net s primary then None
  else
    List.find_opt
      (fun h -> h <> primary && Transport.reachable net s h)
      (Kernel.replica_sites env.cl fid)

(* Storage-site rpc for operations a secondary can also serve (open /
   close bookkeeping): prefer the primary, fail over across a partition. *)
let rpc_storage_or_replica env fid msg =
  match reachable_secondary env fid with
  | Some dst -> Kernel.rpc env.cl ~src:(site env) ~dst msg
  | None -> rpc_storage env fid msg

(* Lock operations go to the current lock authority (§5.2 delegation, or
   the locus_shard lock-manager role): start from the hint, follow
   redirects, fall back to the storage site. Under dynamic placement a
   stale hint may also bounce ([R_retry], e.g. mid-migration or an
   unreachable directory) — sleep and re-chase, never fail a lock on
   staleness alone. *)
let rpc_lock_authority env fid msg =
  let bound = if Kernel.sharded env.cl then 24 else 8 in
  let rec go tries dst =
    match Kernel.rpc env.cl ~src:(site env) ~dst msg with
    | Msg.R_redirect d when tries < bound ->
      Kernel.note_lock_authority env.cl fid d;
      go (tries + 1) d
    | Msg.R_retry when Kernel.sharded env.cl && tries < bound ->
      Engine.sleep 2_000;
      go (tries + 1) dst
    | r -> r
  in
  let start =
    match Kernel.lock_authority_hint env.cl fid with
    | Some s when Transport.site_up (Kernel.transport env.cl) s -> s
    | Some _ | None ->
      if Kernel.sharded env.cl then Kernel.shard_default_owner env.cl fid
      else Kernel.storage_site env.cl fid
  in
  go 0 start

let note_use env fid =
  if in_transaction env then Process.note_file_use env.proc fid

(* {1 Process lifecycle} *)

let finish_process env =
  let p = env.proc in
  let src = site env in
  (match p.Process.txid with
  | Some txid when p.Process.top_level ->
    (* A top-level process exiting inside its own transaction is a failed
       transaction. *)
    Kernel.abort_transaction env.cl ~spare:p.Process.pid ~src txid
  | Some _ | None -> ());
  close_txn_span env "process-exit";
  Kernel.member_exit env.cl ~src p;
  p.Process.status <- Process.Exited;
  Proc_table.remove (Kernel.procs env.k) p.Process.pid;
  Kernel.forget_fiber env.k p.Process.pid;
  ignore (Engine.try_fill (engine env) (Kernel.exit_ivar env.cl p.Process.pid) ())

let run_process cl k0 proc fiber_ref f =
  let env =
    {
      cl;
      k = k0;
      proc;
      fiber = fiber_ref;
      lock_cache = Hashtbl.create 8;
      page_cache = Hashtbl.create 8;
      name_cache = Hashtbl.create 8;
      written_fids = Hashtbl.create 8;
      txn_span = None;
    }
  in
  (match !fiber_ref with
  | Some h -> Kernel.register_fiber k0 proc.Process.pid h
  | None -> ());
  match f env with
  | () -> finish_process env
  | exception Engine.Killed -> raise Engine.Killed
  | exception (Process_failure _ | Error _) ->
    Stats.incr (Engine.stats (Kernel.engine cl)) "proc.failures";
    (match env.proc.Process.txid with
    | Some txid ->
      Kernel.abort_transaction env.cl ~spare:env.proc.Process.pid
        ~src:(site env) txid
    | None -> ());
    finish_process env

let spawn_process cl ~site:s ?(name = "proc") f =
  let k = Kernel.kernel cl s in
  let p = Proc_table.alloc_pid (Kernel.procs k) in
  let proc = Process.create ~pid:p ~site:s ~parent:None in
  Proc_table.insert (Kernel.procs k) proc;
  Kernel.note_location cl p s;
  let fiber_ref = ref None in
  let h =
    Engine.spawn ~name ~site:s (Kernel.engine cl) (fun () ->
        run_process cl k proc fiber_ref f)
  in
  fiber_ref := Some h;
  Kernel.register_fiber k p h;
  p

let exit_of cl pid = Kernel.exit_ivar cl pid

let wait_pid env target =
  with_syscall env "sys.wait" @@ fun () ->
  syscall env;
  Engine.await (Kernel.exit_ivar env.cl target)

let fail _env msg = raise (Process_failure msg)

let fork env ?site:dst_opt ?(name = "child") f =
  with_syscall env "sys.fork" @@ fun () ->
  syscall env;
  Engine.consume (engine env) ~instr:(costs env).Costs.fork_instr;
  let dst = Option.value dst_opt ~default:(site env) in
  let parent = env.proc in
  let child_pid = Proc_table.alloc_pid (Kernel.procs env.k) in
  let child = Process.fork_child parent ~pid:child_pid ~site:dst in
  (* Joining the transaction must reach the top-level process's record
     before the child can possibly complete (§4.1 accounting). *)
  (match parent.Process.txid with
  | Some txid ->
    let top =
      match Kernel.transaction_top env.cl txid with
      | Some top -> top
      | None -> raise (Error "fork: transaction has no registered top")
    in
    let rec join tries =
      if tries > 50 then raise (Error "fork: cannot join transaction")
      else begin
        let dst_top =
          match Kernel.location_hint env.cl top with
          | Some s when Transport.site_up (Kernel.transport env.cl) s -> Some s
          | _ -> Kernel.find_process env.cl ~src:(site env) top
        in
        match dst_top with
        | None -> raise (Error "fork: top-level process not found")
        | Some s -> (
          match Kernel.rpc env.cl ~src:(site env) ~dst:s (Msg.Member_join { top; txid })
          with
          | Msg.R_ok -> ()
          | Msg.R_retry ->
            Engine.sleep 2_000;
            join (tries + 1)
          | r -> raise (Error (Fmt.str "fork: member join: %a" Msg.pp_reply r)))
      end
    in
    join 0;
    Kernel.register_member env.cl txid child_pid dst
  | None -> ());
  parent.Process.children <- Pid.Set.add child_pid parent.Process.children;
  let target_k = Kernel.kernel env.cl dst in
  let installed =
    if dst = site env then begin
      Proc_table.insert (Kernel.procs env.k) child;
      child
    end
    else begin
      match
        Kernel.rpc env.cl ~src:(site env) ~dst
          (Msg.Proc_arrive { payload = Kernel.encode_migration child None })
      with
      | Msg.R_ok -> (
        match Proc_table.find (Kernel.procs target_k) child_pid with
        | Some p -> p
        | None -> raise (Error "fork: remote child vanished"))
      | r -> raise (Error (Fmt.str "fork: remote spawn: %a" Msg.pp_reply r))
    end
  in
  (* Inherited channels are additional references to the open files: the
     storage sites must know, or the child's exit would drop state the
     parent still uses. *)
  List.iter
    (fun (ch : Process.open_file) ->
      ignore (rpc_storage env ch.Process.fid (Msg.Open { fid = ch.Process.fid })))
    installed.Process.channels;
  Kernel.note_location env.cl child_pid dst;
  let fiber_ref = ref None in
  let h =
    Engine.spawn ~name ~site:dst (engine env) (fun () ->
        run_process env.cl target_k installed fiber_ref f)
  in
  fiber_ref := Some h;
  Kernel.register_fiber target_k child_pid h;
  Stats.incr (stats env) "proc.forks";
  child_pid

let migrate env dst =
  with_syscall env "sys.migrate" @@ fun () ->
  syscall env;
  if dst <> site env then begin
    Engine.consume (engine env) ~instr:(costs env).Costs.migrate_instr;
    let p = env.proc in
    let src_k = env.k in
    p.Process.status <- Process.In_transit;
    let txn_payload =
      match p.Process.txid with
      | Some txid when p.Process.top_level -> Txn_state.release (Kernel.txns src_k) txid
      | Some _ | None -> None
    in
    let payload = Kernel.encode_migration p txn_payload in
    match Kernel.rpc env.cl ~src:(site env) ~dst (Msg.Proc_arrive { payload }) with
    | Msg.R_ok ->
      Proc_table.remove (Kernel.procs src_k) p.Process.pid;
      Kernel.forget_fiber src_k p.Process.pid;
      let new_k = Kernel.kernel env.cl dst in
      (match Proc_table.find (Kernel.procs new_k) p.Process.pid with
      | Some copy -> env.proc <- copy
      | None -> raise (Error "migrate: arrival lost"));
      env.k <- new_k;
      (match !(env.fiber) with
      | Some h ->
        Kernel.register_fiber new_k env.proc.Process.pid h;
        Engine.set_site (engine env) h dst
      | None -> ());
      Kernel.note_location env.cl env.proc.Process.pid dst;
      (match env.proc.Process.txid with
      | Some txid -> Kernel.update_member_site env.cl txid env.proc.Process.pid dst
      | None -> ());
      Stats.incr (stats env) "proc.migrations"
    | _ ->
      (* Destination unreachable: the migration fails and the process
         stays put. *)
      (match txn_payload with
      | Some txn -> Txn_state.adopt (Kernel.txns src_k) txn
      | None -> ());
      p.Process.status <- Process.Running
  end

(* {1 Name mapping through real directory files}

   Directories are ordinary files of fixed-width entries, stored and read
   through the same kernel paths as any data file, so path resolution has
   the true distributed cost §3.2 attributes to it. Directory access
   deliberately happens OUTSIDE any transaction envelope (reads and
   updates are made as the process, under conventional locks released
   immediately, and committed at once): §3.4 — directories "should not
   remain locked for the duration of a transaction", and two transactions
   creating the same name must conflict immediately even though neither
   has committed. *)

let dir_entry_len = 64
let dir_name_len = 47
let dir_lock_span = 1 lsl 30

let encode_dir_entry name fid =
  if String.length name > dir_name_len then raise (Error "name too long");
  if String.contains name '/' || name = "" then raise (Error "bad name");
  Printf.sprintf "%-*s %-16s" dir_name_len name (File_id.to_string fid)

let decode_dir_entry s =
  let name = String.trim (String.sub s 0 dir_name_len) in
  let fid = String.trim (String.sub s (dir_name_len + 1) 16) in
  match File_id.of_string fid with
  | Some fid when name <> "" -> Some (name, fid)
  | _ -> None

let dir_open env fid =
  match rpc_storage env fid (Msg.Open { fid }) with
  | Msg.R_ok -> ()
  | r -> raise (Error (Fmt.str "dir open: %a" Msg.pp_reply r))

let dir_close env fid =
  ignore
    (rpc_storage env fid
       (Msg.Close { fid; owner = Owner.Process (pid env); commit_on_close = false }))

let dir_size env fid =
  match rpc_storage env fid (Msg.File_size { fid }) with
  | Msg.R_int n -> n
  | r -> raise (Error (Fmt.str "dir size: %a" Msg.pp_reply r))

(* Directory reads are issued as the PROCESS (never the transaction): a
   momentary Figure-1 access that leaves no retained locks behind. *)
let dir_read env fid ~pos ~len =
  match
    rpc_storage env fid
      (Msg.Read { fid; reader = Owner.Process (pid env); pid = pid env; pos; len })
  with
  | Msg.R_data b -> b
  | r -> raise (Error (Fmt.str "dir read: %a" Msg.pp_reply r))

let dir_entries env fid =
  let size = dir_size env fid in
  let b = if size = 0 then Bytes.create 0 else dir_read env fid ~pos:0 ~len:size in
  let n = Bytes.length b / dir_entry_len in
  List.filter_map
    (fun i -> decode_dir_entry (Bytes.to_string (Bytes.sub b (i * dir_entry_len) dir_entry_len)))
    (List.init n Fun.id)

let dir_lookup env fid name =
  List.assoc_opt name (dir_entries env fid)

(* Whole-directory critical section: a conventional exclusive lock held
   only for the duration of the update — never retained by a transaction
   (it is owned by the process, §3.4). *)
let with_dir_lock env fid f =
  let range = Byte_range.v ~lo:0 ~hi:dir_lock_span in
  let owner = Owner.Process (pid env) in
  (match
     rpc_lock_authority env fid
       (Msg.Lock
          { fid; owner; pid = pid env; mode = Mode.Exclusive; range;
            non_transaction = true; wait = true })
   with
  | Msg.R_granted | Msg.R_granted_data _ -> ()
  | r -> raise (Error (Fmt.str "dir lock: %a" Msg.pp_reply r)));
  Fun.protect f ~finally:(fun () ->
      ignore
        (rpc_lock_authority env fid (Msg.Unlock { fid; owner; pid = pid env; range })))

exception Name_exists of string

let dir_add_entry env dir name fid =
  with_dir_lock env dir (fun () ->
      if dir_lookup env dir name <> None then raise (Name_exists name);
      let size = dir_size env dir in
      let entry = encode_dir_entry name fid in
      (match
         rpc_storage env dir
           (Msg.Write
              { fid = dir; owner = Owner.Process (pid env); pid = pid env;
                pos = size; data = Bytes.of_string entry })
       with
      | Msg.R_ok -> ()
      | r -> raise (Error (Fmt.str "dir write: %a" Msg.pp_reply r)));
      (* Directory updates are durable and visible immediately (§3.4):
         they do not ride on any enclosing transaction. *)
      match
        rpc_storage env dir
          (Msg.Commit_file { fid = dir; owner = Owner.Process (pid env) })
      with
      | Msg.R_ok -> ()
      | r -> raise (Error (Fmt.str "dir commit: %a" Msg.pp_reply r)))

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then
    raise (Error (Printf.sprintf "path must be absolute: %s" path));
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

let create_node env ~vid =
  let host = Kernel.storage_site env.cl (File_id.make ~vid ~ino:0) in
  match Kernel.rpc env.cl ~src:(site env) ~dst:host (Msg.Create_file { vid }) with
  | Msg.R_fid fid -> fid
  | r -> raise (Error (Fmt.str "create: %a" Msg.pp_reply r))

(* Walk (and optionally create) the directories leading to [path]'s leaf;
   returns the parent directory and the leaf name. Intermediate
   directories live on the root volume. *)
let resolve_parent env path ~mkdirs =
  match List.rev (split_path path) with
  | [] -> raise (Error "empty path")
  | leaf :: rev_dirs ->
    let dirs = List.rev rev_dirs in
    let root = Kernel.root_dir env.cl ~src:(site env) in
    let rec walk dir prefix = function
      | [] -> dir
      | c :: rest ->
        let here = prefix ^ "/" ^ c in
        let next =
          match Hashtbl.find_opt env.name_cache here with
          | Some fid -> fid
          | None ->
            dir_open env dir;
            let found =
              Fun.protect
                (fun () -> dir_lookup env dir c)
                ~finally:(fun () -> dir_close env dir)
            in
            let fid =
              match found with
              | Some fid -> fid
              | None ->
                if not mkdirs then
                  raise (Error (Printf.sprintf "no such directory: %s" here))
                else begin
                  let sub = create_node env ~vid:dir.File_id.vid in
                  dir_open env dir;
                  Fun.protect
                    (fun () ->
                      try
                        dir_add_entry env dir c sub;
                        Kernel.bind_path env.cl here sub
                      with Name_exists _ -> ())
                    ~finally:(fun () -> dir_close env dir);
                  (* Re-read: we may have lost the creation race. *)
                  dir_open env dir;
                  Fun.protect
                    (fun () ->
                      match dir_lookup env dir c with
                      | Some fid -> fid
                      | None -> raise (Error "directory creation lost"))
                    ~finally:(fun () -> dir_close env dir)
                end
            in
            Hashtbl.replace env.name_cache here fid;
            fid
        in
        walk next here rest
    in
    (walk root "" dirs, leaf)

let resolve_path env path =
  match Hashtbl.find_opt env.name_cache path with
  | Some fid -> Some fid
  | None ->
    let parent, leaf = resolve_parent env path ~mkdirs:false in
    dir_open env parent;
    let found =
      Fun.protect (fun () -> dir_lookup env parent leaf)
        ~finally:(fun () -> dir_close env parent)
    in
    (match found with
    | Some fid -> Hashtbl.replace env.name_cache path fid
    | None -> ());
    found

let mkdir env path ~vid =
  with_syscall env "sys.mkdir" @@ fun () ->
  syscall env;
  let parent, leaf = resolve_parent env path ~mkdirs:true in
  let fid = create_node env ~vid in
  dir_open env parent;
  Fun.protect
    (fun () ->
      try dir_add_entry env parent leaf fid
      with Name_exists _ -> raise (Error (Printf.sprintf "mkdir: %s exists" path)))
    ~finally:(fun () -> dir_close env parent);
  Kernel.bind_path env.cl path fid;
  Hashtbl.replace env.name_cache path fid

let readdir env path =
  with_syscall env "sys.readdir" @@ fun () ->
  syscall env;
  let fid =
    if path = "/" then Kernel.root_dir env.cl ~src:(site env)
    else
      match resolve_path env path with
      | Some fid -> fid
      | None -> raise (Error (Printf.sprintf "readdir: no such directory %s" path))
  in
  dir_open env fid;
  Fun.protect
    (fun () -> List.map fst (dir_entries env fid))
    ~finally:(fun () -> dir_close env fid)

(* {1 Files} *)

let creat env path ~vid =
  with_syscall env "sys.creat" @@ fun () ->
  syscall env;
  let parent, leaf = resolve_parent env path ~mkdirs:true in
  let fid = create_node env ~vid in
  dir_open env parent;
  Fun.protect
    (fun () ->
      try dir_add_entry env parent leaf fid
      with Name_exists _ ->
        raise (Error (Printf.sprintf "creat: %s exists" path)))
    ~finally:(fun () -> dir_close env parent);
  Kernel.bind_path env.cl path fid;
  Hashtbl.replace env.name_cache path fid;
  (match rpc_storage env fid (Msg.Open { fid }) with
  | Msg.R_ok -> ()
  | r -> raise (Error (Fmt.str "creat: %a" Msg.pp_reply r)));
  note_use env fid;
  Process.add_channel env.proc fid

let open_file env path =
  with_syscall env "sys.open" @@ fun () ->
  syscall env;
  (* Name mapping — the once-per-file distributed step (§3.2): walk the
     directory files, then cache the binding. *)
  match resolve_path env path with
  | None -> raise (Error (Printf.sprintf "open: no such file %s" path))
  | Some fid -> (
    match rpc_storage_or_replica env fid (Msg.Open { fid }) with
    | Msg.R_ok ->
      note_use env fid;
      Process.add_channel env.proc fid
    | r -> raise (Error (Fmt.str "open: %a" Msg.pp_reply r)))

let close env c =
  with_syscall env "sys.close" @@ fun () ->
  syscall env;
  let ch = chan_exn env c in
  let commit_on_close = not (in_transaction env) in
  (match
     rpc_storage_or_replica env ch.Process.fid
       (Msg.Close { fid = ch.Process.fid; owner = owner env; commit_on_close })
   with
  | Msg.R_ok -> if commit_on_close then Hashtbl.remove env.written_fids ch.Process.fid
  | r -> raise (Error (Fmt.str "close: %a" Msg.pp_reply r)));
  Hashtbl.remove env.lock_cache c;
  Hashtbl.remove env.page_cache c;
  Process.close_channel env.proc c

let seek env c ~pos =
  let ch = chan_exn env c in
  if pos < 0 then raise (Error "seek: negative position");
  ch.Process.pos <- pos

let pos env c = (chan_exn env c).Process.pos

let size env c =
  with_syscall env "sys.size" @@ fun () ->
  syscall env;
  let ch = chan_exn env c in
  match rpc_storage env ch.Process.fid (Msg.File_size { fid = ch.Process.fid }) with
  | Msg.R_int n -> n
  | r -> raise (Error (Fmt.str "size: %a" Msg.pp_reply r))

let set_append env c v = (chan_exn env c).Process.append <- v

(* Validation against the requesting-site lock cache (§5.1). With the
   cache disabled (E2 ablation) every covered access pays a verification
   message to the storage site instead of a local table probe. *)
let validate_access env c fid range =
  let cached =
    match Hashtbl.find_opt env.lock_cache c with
    | Some locks -> List.exists (fun (r, _) -> Byte_range.subsumes r range) locks
    | None -> false
  in
  if cached then begin
    if (Kernel.config env.cl).Kernel.Config.lock_cache then
      Engine.consume (engine env) ~instr:(costs env).Costs.lock_cache_instr
    else begin
      Stats.incr (stats env) "lock.revalidations";
      ignore (rpc_storage env fid Msg.Ping)
    end
  end

let cache_pages env c range data =
  let cur = Option.value (Hashtbl.find_opt env.page_cache c) ~default:[] in
  Hashtbl.replace env.page_cache c ((range, data) :: cur)

let drop_cached_pages env c range =
  match Hashtbl.find_opt env.page_cache c with
  | None -> ()
  | Some entries ->
    Hashtbl.replace env.page_cache c
      (List.filter (fun (r, _) -> not (Byte_range.overlaps r range)) entries)

(* Serve a read locally if a prefetched range covers it entirely. *)
let cached_read env c ~pos ~len =
  if len <= 0 then None
  else begin
    let want = Byte_range.of_pos_len ~pos ~len in
    match Hashtbl.find_opt env.page_cache c with
    | None -> None
    | Some entries ->
      List.find_opt (fun (r, _) -> Byte_range.subsumes r want) entries
      |> Option.map (fun (r, data) ->
             let out = Bytes.create len in
             Bytes.blit data (pos - Byte_range.lo r) out 0 len;
             out)
  end

(* Write-through: patch any prefetched copies our write overlaps. *)
let patch_cached_pages env c ~pos data =
  let len = Bytes.length data in
  if len > 0 then begin
    let w = Byte_range.of_pos_len ~pos ~len in
    match Hashtbl.find_opt env.page_cache c with
    | None -> ()
    | Some entries ->
      List.iter
        (fun (r, cached) ->
          match Byte_range.inter r w with
          | None -> ()
          | Some overlap ->
            let o = Byte_range.lo overlap and l = Byte_range.len overlap in
            Bytes.blit data (o - pos) cached (o - Byte_range.lo r) l)
        entries
  end

(* §5.2 replication: serve a read from the local copy of a replicated
   volume when this site hosts a secondary. Process readers always
   qualify (conventional access is relaxed); a transaction reader only
   under a covering cached Shared lock with no overlapping Exclusive one
   — the shared lock, held at the primary, fences out concurrent
   committers, and synchronous phase-2 propagation then makes the local
   committed copy one-copy fresh. Our own pending writes live only in
   the primary's overlay, so any file we wrote goes there. *)
let replica_read_rpc env fid ~dst ~pos ~len =
  match
    Kernel.rpc env.cl ~src:(site env) ~dst
      (Msg.Replica_read { fid; reader = owner env; pid = pid env; pos; len })
  with
  | Msg.R_data b -> Some b
  | _ -> None

let local_replica_read env c fid ~pos ~len =
  let s = site env in
  let hosts = Kernel.replica_sites env.cl fid in
  if len <= 0 || List.length hosts < 2 || Hashtbl.mem env.written_fids fid then
    None
  else
    match reachable_secondary env fid with
    | Some h ->
      (* The primary is on the far side of a partition: fail the read
         over to a reachable copy. The serving site flags the data as
         degraded, which is exactly the §3.4-style staleness the checker
         permits. *)
      replica_read_rpc env fid ~dst:h ~pos ~len
    | None when (not (List.mem s hosts)) || Kernel.storage_site env.cl fid = s
      ->
      None
    | None -> begin
    let want = Byte_range.of_pos_len ~pos ~len in
    let eligible =
      match owner env with
      | Owner.Process _ -> true
      | Owner.Transaction _ -> (
        match Hashtbl.find_opt env.lock_cache c with
        | None -> false
        | Some locks ->
          List.exists
            (fun (r, m) ->
              Mode.equal m Mode.Shared && Byte_range.subsumes r want)
            locks
          && not
               (List.exists
                  (fun (r, m) ->
                    Mode.equal m Mode.Exclusive && Byte_range.overlaps r want)
                  locks))
    in
    if not eligible then None
    else begin
      match replica_read_rpc env fid ~dst:s ~pos ~len with
      | Some b ->
        Stats.incr (stats env) "replica.local_reads";
        Some b
      | None ->
        (* Degraded copy bounced us (or refused): use the primary. *)
        None
    end
  end

let read env c ~len =
  with_syscall env "sys.read" @@ fun () ->
  syscall env;
  let ch = chan_exn env c in
  let fid = ch.Process.fid in
  note_use env fid;
  match cached_read env c ~pos:ch.Process.pos ~len with
  | Some b ->
    Stats.incr (stats env) "prefetch.hits";
    Engine.consume (engine env)
      ~instr:((costs env).Costs.lock_cache_instr + Costs.copy_instr (costs env) ~bytes:len);
    (* Prefetch hits bypass the storage site, so the history event must
       come from here or cached reads would vanish from the record. *)
    Kernel.observe env.cl ~site:(site env)
      (Obs.Read
         {
           owner = owner env;
           pid = pid env;
           fid;
           range = Byte_range.of_pos_len ~pos:ch.Process.pos ~len;
           data = Bytes.to_string b;
         });
    ch.Process.pos <- ch.Process.pos + len;
    b
  | None -> (
    match local_replica_read env c fid ~pos:ch.Process.pos ~len with
    | Some b ->
      ch.Process.pos <- ch.Process.pos + len;
      b
    | None -> (
      if len > 0 then
        validate_access env c fid (Byte_range.of_pos_len ~pos:ch.Process.pos ~len);
      match
        rpc_storage env fid
          (Msg.Read { fid; reader = owner env; pid = pid env; pos = ch.Process.pos; len })
      with
      | Msg.R_data b ->
        ch.Process.pos <- ch.Process.pos + len;
        b
      | r -> raise (Error (Fmt.str "read: %a" Msg.pp_reply r))))

let write env c data =
  with_syscall env "sys.write" @@ fun () ->
  syscall env;
  let ch = chan_exn env c in
  let fid = ch.Process.fid in
  note_use env fid;
  let len = Bytes.length data in
  if len > 0 then
    validate_access env c fid (Byte_range.of_pos_len ~pos:ch.Process.pos ~len);
  match
    (* Failover routing reaches the takeover copy when a partition hides
       the primary — which then refuses the update with a clear degraded
       error rather than letting the write time out. *)
    rpc_storage_or_replica env fid
      (Msg.Write { fid; owner = owner env; pid = pid env; pos = ch.Process.pos; data })
  with
  | Msg.R_ok ->
    Hashtbl.replace env.written_fids fid ();
    patch_cached_pages env c ~pos:ch.Process.pos data;
    ch.Process.pos <- ch.Process.pos + len
  | r -> raise (Error (Fmt.str "write: %a" Msg.pp_reply r))

let pread env c ~pos ~len =
  seek env c ~pos;
  read env c ~len

let pwrite env c ~pos data =
  seek env c ~pos;
  write env c data

let write_string env c s = write env c (Bytes.of_string s)

let commit_file env c =
  with_syscall env "sys.commit_file" @@ fun () ->
  syscall env;
  if not (in_transaction env) then begin
    let ch = chan_exn env c in
    match
      rpc_storage env ch.Process.fid
        (Msg.Commit_file { fid = ch.Process.fid; owner = owner env })
    with
    | Msg.R_ok -> Hashtbl.remove env.written_fids ch.Process.fid
    | r -> raise (Error (Fmt.str "commit_file: %a" Msg.pp_reply r))
  end

let abort_updates env c =
  with_syscall env "sys.abort_updates" @@ fun () ->
  syscall env;
  let ch = chan_exn env c in
  match
    rpc_storage env ch.Process.fid
      (Msg.Abort_file { fid = ch.Process.fid; owner = owner env })
  with
  | Msg.R_ok -> Hashtbl.remove env.written_fids ch.Process.fid
  | r -> raise (Error (Fmt.str "abort_updates: %a" Msg.pp_reply r))

(* {1 Record locking} *)

type lock_result = Granted | Conflict of Owner.t list

let cache_lock env c range mode =
  let cur = Option.value (Hashtbl.find_opt env.lock_cache c) ~default:[] in
  Hashtbl.replace env.lock_cache c ((range, mode) :: cur)

let uncache_range env c range =
  match Hashtbl.find_opt env.lock_cache c with
  | None -> ()
  | Some locks ->
    Hashtbl.replace env.lock_cache c
      (List.filter (fun (r, _) -> not (Byte_range.overlaps r range)) locks)

let lock env c ~len ~mode ?(non_transaction = false) ?(wait = true) () =
  with_syscall env "sys.lock" @@ fun () ->
  syscall env;
  let ch = chan_exn env c in
  let fid = ch.Process.fid in
  note_use env fid;
  if len <= 0 then raise (Error "lock: non-positive length");
  if ch.Process.append then begin
    (* EOF-relative: atomically extend-and-lock (§3.2). *)
    match
      rpc_storage env fid
        (Msg.Lock_append
           { fid; owner = owner env; pid = pid env; len; mode; non_transaction })
    with
    | Msg.R_granted_at off ->
      ch.Process.pos <- off;
      cache_lock env c (Byte_range.of_pos_len ~pos:off ~len) mode;
      Granted
    | Msg.R_conflict owners -> Conflict owners
    | r -> raise (Error (Fmt.str "lock append: %a" Msg.pp_reply r))
  end
  else begin
    let range = Byte_range.of_pos_len ~pos:ch.Process.pos ~len in
    match
      rpc_lock_authority env fid
        (Msg.Lock { fid; owner = owner env; pid = pid env; mode; range; non_transaction; wait })
    with
    | Msg.R_granted ->
      cache_lock env c range mode;
      Granted
    | Msg.R_granted_data data ->
      cache_lock env c range mode;
      cache_pages env c range data;
      Granted
    | Msg.R_conflict owners -> Conflict owners
    | r -> raise (Error (Fmt.str "lock: %a" Msg.pp_reply r))
  end

(* §3.3 lock-read piggybacking: a transaction's first read of a record
   normally costs two round trips — an explicit Shared lock, then the
   read. [read_locked] sends one [Read_locked] message instead: the
   storage site takes the implicit Shared lock (retained until commit,
   like any §3.1 implicit grant) and confirms it in the reply, so the
   client caches the lock exactly as if {!lock} had granted it. Ranges
   already covered, zero-length reads and conventional (non-transaction)
   reads take the plain {!read} path; the break-batch self-test fault
   degrades to the explicit lock-then-read pair it is meant to cost. *)
let read_locked env c ~len =
  let ch = chan_exn env c in
  let pos = ch.Process.pos in
  let covered =
    len > 0
    &&
    let want = Byte_range.of_pos_len ~pos ~len in
    match Hashtbl.find_opt env.lock_cache c with
    | Some locks -> List.exists (fun (r, _) -> Byte_range.subsumes r want) locks
    | None -> false
  in
  if len <= 0 || covered || not (in_transaction env) then read env c ~len
  else if Mutant.(armed Batch) then begin
    ignore (lock env c ~len ~mode:Mode.Shared ());
    read env c ~len
  end
  else
    with_syscall env "sys.read_locked" @@ fun () ->
    syscall env;
    let fid = ch.Process.fid in
    note_use env fid;
    let range = Byte_range.of_pos_len ~pos ~len in
    match
      rpc_storage env fid
        (Msg.Read_locked { fid; reader = owner env; pid = pid env; pos; len })
    with
    | Msg.R_data_locked b ->
      cache_lock env c range Mode.Shared;
      Stats.incr (stats env) "lock.piggyback_reads";
      ch.Process.pos <- pos + len;
      b
    | Msg.R_data b ->
      (* Served without a retained lock (e.g. rare process-reader race):
         data is good, but nothing may be cached. *)
      ch.Process.pos <- pos + len;
      b
    | r -> raise (Error (Fmt.str "read_locked: %a" Msg.pp_reply r))

let pread_locked env c ~pos ~len =
  seek env c ~pos;
  read_locked env c ~len

let unlock env c ~len =
  with_syscall env "sys.unlock" @@ fun () ->
  syscall env;
  let ch = chan_exn env c in
  let fid = ch.Process.fid in
  let range = Byte_range.of_pos_len ~pos:ch.Process.pos ~len in
  uncache_range env c range;
  drop_cached_pages env c range;
  match
    rpc_lock_authority env fid
      (Msg.Unlock { fid; owner = owner env; pid = pid env; range })
  with
  | Msg.R_ok -> ()
  | r -> raise (Error (Fmt.str "unlock: %a" Msg.pp_reply r))

(* {1 Transactions} *)

let begin_trans env =
  syscall env;
  let p = env.proc in
  if p.Process.nesting = 0 && p.Process.txid = None then begin
    let txid = Kernel.alloc_txid env.k in
    open_txn_span env txid;
    p.Process.txid <- Some txid;
    p.Process.top_level <- true;
    p.Process.file_list <- File_id.Set.empty;
    let (_ : Txn_state.txn) =
      Txn_state.start (Kernel.txns env.k) ~txid ~top_pid:p.Process.pid
    in
    Kernel.register_transaction env.cl txid ~top:p.Process.pid ~site:(site env);
    Kernel.observe env.cl ~site:(site env)
      (Obs.Begin { txid; pid = p.Process.pid });
    Stats.incr (stats env) "txn.begun"
  end;
  p.Process.nesting <- p.Process.nesting + 1

let own_files_with_sites env =
  File_id.Set.elements env.proc.Process.file_list
  |> List.map (fun fid -> (fid, Kernel.storage_site env.cl fid))

let end_trans env =
  with_syscall env "sys.end_trans" @@ fun () ->
  syscall env;
  let p = env.proc in
  if p.Process.nesting <= 0 then raise (Error "end_trans: not in a transaction");
  p.Process.nesting <- p.Process.nesting - 1;
  if p.Process.nesting > 0 then Kernel.Committed (* inner pairing only (§2) *)
  else if not p.Process.top_level then Kernel.Committed
  else begin
    let txid =
      match p.Process.txid with
      | Some t -> t
      | None -> raise (Error "end_trans: no transaction id")
    in
    let finish outcome =
      close_txn_span env
        (match outcome with
        | Kernel.Committed -> "committed"
        | Kernel.Aborted -> "aborted");
      p.Process.txid <- None;
      p.Process.top_level <- false;
      Hashtbl.reset env.lock_cache;
      Hashtbl.reset env.page_cache;
      outcome
    in
    match Txn_state.find (Kernel.txns env.k) txid with
    | None ->
      (* The transaction was aborted out from under us. *)
      finish Kernel.Aborted
    | Some txn ->
      Txn_state.merge_files txn (own_files_with_sites env);
      let iv = Kernel.register_end_wait env.k txid in
      if txn.Txn_state.live_members <= 1 then begin
        txn.Txn_state.phase <- Txn_state.Committing;
        finish (Kernel.commit_transaction env.k txn)
      end
      else begin
        match Engine.await iv with
        | Kernel.Members_done -> finish (Kernel.commit_transaction env.k txn)
        | Kernel.Abort_requested -> finish Kernel.Aborted
      end
  end

let abort_trans env =
  with_syscall env "sys.abort_trans" @@ fun () ->
  syscall env;
  let p = env.proc in
  match p.Process.txid with
  | None -> raise (Error "abort_trans: not in a transaction")
  | Some txid ->
    Kernel.abort_transaction env.cl ~spare:p.Process.pid ~src:(site env) txid;
    close_txn_span env "aborted";
    p.Process.txid <- None;
    p.Process.nesting <- 0;
    p.Process.top_level <- false;
    Hashtbl.reset env.lock_cache;
    Hashtbl.reset env.page_cache
