type abort_reason = Deadlock | Orphan | Crash | Degraded_vote | Coordinator_lost | User

type error =
  | Retry
  | Redirect of int
  | Refused of string
  | Net of Transport.error

let pp_error ppf = function
  | Retry -> Fmt.string ppf "retry"
  | Redirect s -> Fmt.pf ppf "redirect(%d)" s
  | Refused why -> Fmt.string ppf why
  | Net e -> Transport.pp_error ppf e

type grant = Granted | Granted_data of Bytes.t | Conflict of Owner.t list
type shard_owner = { owner : int; epoch : int; prev : int }

(* A handler's answer for the wire: its value with the witness of its
   type, or its error. *)
type packed = Value : 'r Type.Id.t * 'r -> packed | Failed of error

type _ t =
  | Open : { fid : File_id.t } -> unit t
  | Close : { fid : File_id.t; owner : Owner.t; commit_on_close : bool } -> unit t
  | Read : { fid : File_id.t; reader : Owner.t; pid : Pid.t; pos : int; len : int }
      -> Bytes.t t
  | Write : { fid : File_id.t; owner : Owner.t; pid : Pid.t; pos : int; data : Bytes.t }
      -> unit t
  | Lock : {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      mode : Mode.t;
      range : Byte_range.t;
      non_transaction : bool;
      wait : bool;
    }
      -> grant t
  | Lock_append : {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      len : int;
      mode : Mode.t;
      non_transaction : bool;
    }
      -> int t
  | Unlock : { fid : File_id.t; owner : Owner.t; pid : Pid.t; range : Byte_range.t }
      -> unit t
  | Commit_file : { fid : File_id.t; owner : Owner.t } -> unit t
  | Abort_file : { fid : File_id.t; owner : Owner.t } -> unit t
  | File_size : { fid : File_id.t } -> int t
  | Create_file : { vid : int } -> File_id.t t
  | Member_join : { top : Pid.t; txid : Txid.t } -> unit t
  | Merge_file_list : {
      top : Pid.t;
      txid : Txid.t;
      files : (File_id.t * int) list;
    }
      -> unit t
  | Proc_arrive : { payload : string } -> unit t
  | Proc_exit_cleanup : { pid : Pid.t; fids : File_id.t list } -> unit t
  | Prepare : {
      txid : Txid.t;
      coordinator_site : int;
      files : File_id.t list;
      participants : int list;
    }
      -> bool t
  | Commit_phase2 : { txid : Txid.t; files : File_id.t list } -> unit t
  | Abort_phase2 : { txid : Txid.t; files : File_id.t list } -> unit t
  | Abort_tree : {
      txid : Txid.t;
      pid : Pid.t;
      spare : Pid.t option;
      reason : abort_reason;
    }
      -> bool t
  | Query_outcome : { txid : Txid.t } -> Log_record.status option t
  | Vote_2a : {
      txid : Txid.t;
      participant : int;
      vote : bool;
      ballot : int;
      participants : int list;
    }
      -> bool t
  | Decision_query : { txid : Txid.t } -> (int list * (int * bool) list) t
  | Acceptor_forget : { txid : Txid.t } -> unit t
  | Find_process : { pid : Pid.t } -> bool t
  | Replica_commit : { update : Update.t } -> unit t
  | Replica_pull : { fid : File_id.t } -> Update.t t
  | Replica_versions : { vid : int } -> (int * int) list t
  | Replica_read : {
      fid : File_id.t;
      reader : Owner.t;
      pid : Pid.t;
      pos : int;
      len : int;
    }
      -> Bytes.t t
  | Shard_lookup : { fid : File_id.t } -> shard_owner t
  | Shard_claim : { fid : File_id.t; new_owner : int; from_epoch : int } -> shard_owner t
  | Shard_migrate : { fid : File_id.t; epoch : int; payload : string } -> unit t
  | Shard_migrate_req : { fid : File_id.t; dst : int } -> unit t
  | Shard_handoff : { fid : File_id.t } -> bool t
  | Ensure_lock : {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      range : Byte_range.t;
      write : bool;
      momentary : bool;
      dirty : bool;
    }
      -> Byte_range.t list t
  | Release_locks : {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      ranges : Byte_range.t list option;
      cancel : bool;
    }
      -> unit t
  | Ping : unit t
  | Health_query : Locus_health.Report.site t
  | Read_locked : {
      fid : File_id.t;
      reader : Owner.t;
      pid : Pid.t;
      pos : int;
      len : int;
    }
      -> Bytes.t t
  | Batch : env list -> packed list t

and env = { ctx : Locus_otrace.Otrace.ctx option; rid : rid option; payload : any }
and any = Any : 'r t -> any

(* Exactly-once request identity (locus_chaos): [(r_site, r_inc, r_seq)]
   names one logical request for the lifetime of the client kernel's
   incarnation, however many wire copies retries and duplication produce.
   [r_ack] piggybacks the client's completion watermark: every seq at or
   below it is finished client-side, so servers may evict those cache
   entries — and must treat a late copy of one as a stale duplicate. *)
and rid = { r_site : int; r_inc : int; r_seq : int; r_ack : int }

let envelope ?ctx ?rid msg = { ctx; rid; payload = Any msg }

(* Short static name per constructor — used as the server-side span name,
   so it must be allocation-free and stable across runs. *)
let label : type r. r t -> string = function
  | Open _ -> "open"
  | Close _ -> "close"
  | Read _ -> "read"
  | Write _ -> "write"
  | Lock _ -> "lock"
  | Lock_append _ -> "lock-append"
  | Unlock _ -> "unlock"
  | Commit_file _ -> "commit-file"
  | Abort_file _ -> "abort-file"
  | File_size _ -> "size"
  | Create_file _ -> "create-file"
  | Member_join _ -> "member-join"
  | Merge_file_list _ -> "merge-file-list"
  | Proc_arrive _ -> "proc-arrive"
  | Proc_exit_cleanup _ -> "proc-exit"
  | Prepare _ -> "prepare"
  | Commit_phase2 _ -> "commit2"
  | Abort_phase2 _ -> "abort2"
  | Abort_tree _ -> "abort-tree"
  | Query_outcome _ -> "query-outcome"
  | Vote_2a _ -> "vote-2a"
  | Decision_query _ -> "decision-query"
  | Acceptor_forget _ -> "acceptor-forget"
  | Find_process _ -> "find-process"
  | Replica_commit _ -> "replica-commit"
  | Replica_pull _ -> "replica-pull"
  | Replica_versions _ -> "replica-versions"
  | Replica_read _ -> "replica-read"
  | Shard_lookup _ -> "shard-lookup"
  | Shard_claim _ -> "shard-claim"
  | Shard_migrate _ -> "shard-migrate"
  | Shard_migrate_req _ -> "shard-migrate-req"
  | Shard_handoff _ -> "shard-handoff"
  | Ensure_lock _ -> "ensure-lock"
  | Release_locks _ -> "release-locks"
  | Ping -> "ping"
  | Health_query -> "health"
  | Read_locked _ -> "read-locked"
  | Batch _ -> "batch"

(* One type witness per reply type. *)
module Id = struct
  let unit : unit Type.Id.t = Type.Id.make ()
  let bool : bool Type.Id.t = Type.Id.make ()
  let int : int Type.Id.t = Type.Id.make ()
  let bytes : Bytes.t Type.Id.t = Type.Id.make ()
  let fid : File_id.t Type.Id.t = Type.Id.make ()
  let grant : grant Type.Id.t = Type.Id.make ()
  let pieces : Byte_range.t list Type.Id.t = Type.Id.make ()
  let shard_owner : shard_owner Type.Id.t = Type.Id.make ()
  let outcome : Log_record.status option Type.Id.t = Type.Id.make ()
  let decision : (int list * (int * bool) list) Type.Id.t = Type.Id.make ()
  let update : Update.t Type.Id.t = Type.Id.make ()
  let versions : (int * int) list Type.Id.t = Type.Id.make ()
  let health : Locus_health.Report.site Type.Id.t = Type.Id.make ()
  let batch : packed list Type.Id.t = Type.Id.make ()
end

(* The witness of each request's reply type. *)
let reply_id : type r. r t -> r Type.Id.t = function
  | Open _ -> Id.unit
  | Close _ -> Id.unit
  | Read _ -> Id.bytes
  | Write _ -> Id.unit
  | Lock _ -> Id.grant
  | Lock_append _ -> Id.int
  | Unlock _ -> Id.unit
  | Commit_file _ -> Id.unit
  | Abort_file _ -> Id.unit
  | File_size _ -> Id.int
  | Create_file _ -> Id.fid
  | Member_join _ -> Id.unit
  | Merge_file_list _ -> Id.unit
  | Proc_arrive _ -> Id.unit
  | Proc_exit_cleanup _ -> Id.unit
  | Prepare _ -> Id.bool
  | Commit_phase2 _ -> Id.unit
  | Abort_phase2 _ -> Id.unit
  | Abort_tree _ -> Id.bool
  | Query_outcome _ -> Id.outcome
  | Vote_2a _ -> Id.bool
  | Decision_query _ -> Id.decision
  | Acceptor_forget _ -> Id.unit
  | Find_process _ -> Id.bool
  | Replica_commit _ -> Id.unit
  | Replica_pull _ -> Id.update
  | Replica_versions _ -> Id.versions
  | Replica_read _ -> Id.bytes
  | Shard_lookup _ -> Id.shard_owner
  | Shard_claim _ -> Id.shard_owner
  | Shard_migrate _ -> Id.unit
  | Shard_migrate_req _ -> Id.unit
  | Shard_handoff _ -> Id.bool
  | Ensure_lock _ -> Id.pieces
  | Release_locks _ -> Id.unit
  | Ping -> Id.unit
  | Health_query -> Id.health
  | Read_locked _ -> Id.bytes
  | Batch _ -> Id.batch

let pack msg = function Ok v -> Value (reply_id msg, v) | Error e -> Failed e

let unpack (type r) (msg : r t) : packed -> (r, error) result = function
  | Failed e -> Error e
  | Value (id, v) -> (
    match Type.Id.provably_equal id (reply_id msg) with
    | Some Type.Equal -> Ok v
    | None -> invalid_arg ("Msg.unpack: not a reply to " ^ label msg))
