type abort_reason = Deadlock | Orphan | Crash | Degraded_vote | Coordinator_lost | User

type t =
  | Open of { fid : File_id.t }
  | Close of { fid : File_id.t; owner : Owner.t; commit_on_close : bool }
  | Read of { fid : File_id.t; reader : Owner.t; pid : Pid.t; pos : int; len : int }
  | Write of { fid : File_id.t; owner : Owner.t; pid : Pid.t; pos : int; data : Bytes.t }
  | Lock of {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      mode : Mode.t;
      range : Byte_range.t;
      non_transaction : bool;
      wait : bool;
    }
  | Lock_append of {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      len : int;
      mode : Mode.t;
      non_transaction : bool;
    }
  | Unlock of { fid : File_id.t; owner : Owner.t; pid : Pid.t; range : Byte_range.t }
  | Commit_file of { fid : File_id.t; owner : Owner.t }
  | Abort_file of { fid : File_id.t; owner : Owner.t }
  | File_size of { fid : File_id.t }
  | Create_file of { vid : int }
  | Member_join of { top : Pid.t; txid : Txid.t }
  | Merge_file_list of {
      top : Pid.t;
      txid : Txid.t;
      files : (File_id.t * int) list;
    }
  | Proc_arrive of { payload : string }
  | Proc_exit_cleanup of { pid : Pid.t; fids : File_id.t list }
  | Prepare of {
      txid : Txid.t;
      coordinator_site : int;
      files : File_id.t list;
      participants : int list;
    }
  | Commit_phase2 of { txid : Txid.t; files : File_id.t list }
  | Abort_phase2 of { txid : Txid.t; files : File_id.t list }
  | Abort_tree of
      { txid : Txid.t; pid : Pid.t; spare : Pid.t option; reason : abort_reason }
  | Query_outcome of { txid : Txid.t }
  | Vote_2a of {
      txid : Txid.t;
      participant : int;
      vote : bool;
      ballot : int;
      participants : int list;
    }
  | Decision_query of { txid : Txid.t }
  | Acceptor_forget of { txid : Txid.t }
  | Find_process of { pid : Pid.t }
  | Replica_commit of { update : Update.t }
  | Replica_pull of { fid : File_id.t }
  | Replica_versions of { vid : int }
  | Replica_read of {
      fid : File_id.t;
      reader : Owner.t;
      pid : Pid.t;
      pos : int;
      len : int;
    }
  | Shard_lookup of { fid : File_id.t }
  | Shard_claim of { fid : File_id.t; new_owner : int; from_epoch : int }
  | Shard_migrate of { fid : File_id.t; epoch : int; payload : string }
  | Shard_migrate_req of { fid : File_id.t; dst : int }
  | Shard_handoff of { fid : File_id.t }
  | Ensure_lock of {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      range : Byte_range.t;
      write : bool;
      momentary : bool;
      dirty : bool;
    }
  | Release_locks of {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      ranges : Byte_range.t list option;
      cancel : bool;
    }
  | Ping
  | Health_query
      (** Ask a kernel for its live health report (locus_health);
          answered with [R_health]. *)
  | Read_locked of {
      fid : File_id.t;
      reader : Owner.t;
      pid : Pid.t;
      pos : int;
      len : int;
    }
      (** Read that piggybacks implicit Shared-lock acquisition on the
          read RPC itself (one round trip instead of lock-then-read). *)
  | Batch of env list
      (** Several requests for the same destination coalesced into one
          wire message; answered by [R_batch] in the same order. *)

and env = { ctx : Locus_otrace.Otrace.ctx option; rid : rid option; payload : t }

(* Exactly-once request identity (locus_chaos): [(r_site, r_inc, r_seq)]
   names one logical request for the lifetime of the client kernel's
   incarnation, however many wire copies retries and duplication produce.
   [r_ack] piggybacks the client's completion watermark: every seq at or
   below it is finished client-side, so servers may evict those cache
   entries — and must treat a late copy of one as a stale duplicate. *)
and rid = { r_site : int; r_inc : int; r_seq : int; r_ack : int }

type reply =
  | R_ok
  | R_err of string
  | R_retry
  | R_data of Bytes.t
  | R_int of int
  | R_fid of File_id.t
  | R_granted
  | R_granted_data of Bytes.t
  | R_granted_at of int
  | R_conflict of Owner.t list
  | R_redirect of int
  | R_owner of { owner : int; epoch : int; prev : int }
  | R_pieces of Byte_range.t list
  | R_vote of bool
  | R_vote_2b of bool
  | R_decision of { participants : int list; votes : (int * bool) list }
  | R_outcome of Log_record.status option
  | R_found of bool
  | R_update of Update.t
  | R_versions of (int * int) list
  | R_data_locked of Bytes.t
      (** Data plus confirmation that an implicit Shared lock is now held
          at the storage site — the client may cache the lock. *)
  | R_health of Locus_health.Report.site
  | R_batch of reply list

let envelope ?ctx ?rid payload = { ctx; rid; payload }

(* Short static name per constructor — used as the server-side span name,
   so it must be allocation-free and stable across runs. *)
let label = function
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

let rec pp ppf = function
  | Open { fid } -> Fmt.pf ppf "open %a" File_id.pp fid
  | Close { fid; _ } -> Fmt.pf ppf "close %a" File_id.pp fid
  | Read { fid; pos; len; _ } -> Fmt.pf ppf "read %a@%d+%d" File_id.pp fid pos len
  | Write { fid; pos; data; _ } ->
    Fmt.pf ppf "write %a@%d+%d" File_id.pp fid pos (Bytes.length data)
  | Lock { fid; owner; mode; range; wait; _ } ->
    Fmt.pf ppf "lock %a %a %a %a%s" File_id.pp fid Owner.pp owner Mode.pp mode
      Byte_range.pp range
      (if wait then " wait" else "")
  | Lock_append { fid; len; _ } -> Fmt.pf ppf "lock-append %a +%d" File_id.pp fid len
  | Unlock { fid; range; _ } -> Fmt.pf ppf "unlock %a %a" File_id.pp fid Byte_range.pp range
  | Commit_file { fid; owner } ->
    Fmt.pf ppf "commit-file %a %a" File_id.pp fid Owner.pp owner
  | Abort_file { fid; owner } ->
    Fmt.pf ppf "abort-file %a %a" File_id.pp fid Owner.pp owner
  | File_size { fid } -> Fmt.pf ppf "size %a" File_id.pp fid
  | Create_file { vid } -> Fmt.pf ppf "create-file vol%d" vid
  | Member_join { top; txid } -> Fmt.pf ppf "member-join %a %a" Pid.pp top Txid.pp txid
  | Merge_file_list { top; txid; files } ->
    Fmt.pf ppf "merge-file-list %a %a (%d)" Pid.pp top Txid.pp txid (List.length files)
  | Proc_arrive _ -> Fmt.string ppf "proc-arrive"
  | Proc_exit_cleanup { pid; _ } -> Fmt.pf ppf "proc-exit %a" Pid.pp pid
  | Prepare { txid; _ } -> Fmt.pf ppf "prepare %a" Txid.pp txid
  | Commit_phase2 { txid; _ } -> Fmt.pf ppf "commit2 %a" Txid.pp txid
  | Abort_phase2 { txid; _ } -> Fmt.pf ppf "abort2 %a" Txid.pp txid
  | Abort_tree { txid; pid; _ } -> Fmt.pf ppf "abort-tree %a %a" Txid.pp txid Pid.pp pid
  | Query_outcome { txid } -> Fmt.pf ppf "query-outcome %a" Txid.pp txid
  | Vote_2a { txid; participant; vote; ballot; _ } ->
    Fmt.pf ppf "vote-2a %a p%d %b b%d" Txid.pp txid participant vote ballot
  | Decision_query { txid } -> Fmt.pf ppf "decision-query %a" Txid.pp txid
  | Acceptor_forget { txid } -> Fmt.pf ppf "acceptor-forget %a" Txid.pp txid
  | Find_process { pid } -> Fmt.pf ppf "find-process %a" Pid.pp pid
  | Replica_commit { update } -> Fmt.pf ppf "replica-commit %a" Update.pp update
  | Replica_pull { fid } -> Fmt.pf ppf "replica-pull %a" File_id.pp fid
  | Replica_versions { vid } -> Fmt.pf ppf "replica-versions vol%d" vid
  | Replica_read { fid; pos; len; _ } ->
    Fmt.pf ppf "replica-read %a@%d+%d" File_id.pp fid pos len
  | Shard_lookup { fid } -> Fmt.pf ppf "shard-lookup %a" File_id.pp fid
  | Shard_claim { fid; new_owner; from_epoch } ->
    Fmt.pf ppf "shard-claim %a -> site%d from e%d" File_id.pp fid new_owner
      from_epoch
  | Shard_migrate { fid; epoch; _ } ->
    Fmt.pf ppf "shard-migrate %a e%d" File_id.pp fid epoch
  | Shard_migrate_req { fid; dst } ->
    Fmt.pf ppf "shard-migrate-req %a -> site%d" File_id.pp fid dst
  | Shard_handoff { fid } -> Fmt.pf ppf "shard-handoff %a" File_id.pp fid
  | Ensure_lock { fid; owner; range; write; momentary; _ } ->
    Fmt.pf ppf "ensure-lock %a %a %a%s%s" File_id.pp fid Owner.pp owner
      Byte_range.pp range
      (if write then " w" else " r")
      (if momentary then " momentary" else "")
  | Release_locks { fid; owner; ranges; cancel; _ } ->
    Fmt.pf ppf "release-locks %a %a %s%s" File_id.pp fid Owner.pp owner
      (match ranges with
      | None -> "all"
      | Some rs -> Printf.sprintf "%d ranges" (List.length rs))
      (if cancel then " cancel" else "")
  | Ping -> Fmt.string ppf "ping"
  | Health_query -> Fmt.string ppf "health-query"
  | Read_locked { fid; pos; len; _ } ->
    Fmt.pf ppf "read-locked %a@%d+%d" File_id.pp fid pos len
  | Batch envs ->
    Fmt.pf ppf "batch[%a]"
      (Fmt.list ~sep:Fmt.semi (fun ppf e -> pp ppf e.payload))
      envs

let rec pp_reply ppf = function
  | R_ok -> Fmt.string ppf "ok"
  | R_err e -> Fmt.pf ppf "err(%s)" e
  | R_retry -> Fmt.string ppf "retry"
  | R_data b -> Fmt.pf ppf "data(%d)" (Bytes.length b)
  | R_int n -> Fmt.pf ppf "int(%d)" n
  | R_fid fid -> Fmt.pf ppf "fid(%a)" File_id.pp fid
  | R_granted -> Fmt.string ppf "granted"
  | R_granted_data b -> Fmt.pf ppf "granted+data(%d)" (Bytes.length b)
  | R_granted_at n -> Fmt.pf ppf "granted@%d" n
  | R_conflict owners -> Fmt.pf ppf "conflict(%a)" Fmt.(list ~sep:comma Owner.pp) owners
  | R_redirect s -> Fmt.pf ppf "redirect(%d)" s
  | R_owner { owner; epoch; prev } ->
    Fmt.pf ppf "owner(site%d e%d from site%d)" owner epoch prev
  | R_pieces rs -> Fmt.pf ppf "pieces(%d)" (List.length rs)
  | R_vote v -> Fmt.pf ppf "vote(%b)" v
  | R_vote_2b v -> Fmt.pf ppf "vote-2b(%b)" v
  | R_decision { votes; _ } -> Fmt.pf ppf "decision(%d votes)" (List.length votes)
  | R_outcome o ->
    Fmt.pf ppf "outcome(%a)" Fmt.(option ~none:(any "none") Log_record.pp_status) o
  | R_found b -> Fmt.pf ppf "found(%b)" b
  | R_update u -> Fmt.pf ppf "update(%a)" Update.pp u
  | R_versions vs -> Fmt.pf ppf "versions(%d)" (List.length vs)
  | R_data_locked b -> Fmt.pf ppf "data+locked(%d)" (Bytes.length b)
  | R_health s ->
    Fmt.pf ppf "health(site%d)" s.Locus_health.Report.hs_site
  | R_batch rs ->
    Fmt.pf ppf "batch-reply[%a]" (Fmt.list ~sep:Fmt.semi pp_reply) rs
