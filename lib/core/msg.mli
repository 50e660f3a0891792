(** Kernel-to-kernel lightweight message types.

    One request/reply pair per kernel service, mirroring the paper's
    protocol inventory: remote file access and locking (§5.1), file-list
    merging and process migration (§4.1), the two-phase commit and abort
    messages (§4.2–4.3), outcome queries for recovery (§4.4), and replica
    propagation (§5.2). *)

type abort_reason = Deadlock | Orphan | Crash | Degraded_vote | Coordinator_lost | User
(** Why a transaction died, counted as [txn.abort.<reason>] with or
    without a span collector. [Degraded_vote]: a participant voted no
    (degraded replica, denied prepare, unreachable site);
    [Coordinator_lost]: a Paxos Commit resolver learned an abort from the
    acceptors; the others classify [Kernel.abort_transaction] calls. *)

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
    }  (** lock-and-extend at EOF, atomically (§3.2) *)
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
    }  (** child's file-list travelling to the top-level process (§4.1) *)
  | Proc_arrive of { payload : string }  (** marshalled migration payload *)
  | Proc_exit_cleanup of { pid : Pid.t; fids : File_id.t list }
  | Prepare of {
      txid : Txid.t;
      coordinator_site : int;
      files : File_id.t list;
      participants : int list;
    }
      (** [participants] is the transaction's full participant-site set,
          empty under plain 2PC; under Paxos Commit each participant
          records it with its acceptor votes so any reader of a single
          registered vote learns which consensus instances exist *)
  | Commit_phase2 of { txid : Txid.t; files : File_id.t list }
  | Abort_phase2 of { txid : Txid.t; files : File_id.t list }
  | Abort_tree of
      { txid : Txid.t; pid : Pid.t; spare : Pid.t option; reason : abort_reason }
      (** cascade abort to the process [pid] at the target site (§4.3);
          [spare]'s fiber is not killed (it issued the abort). A site that
          does not have [pid] running answers [R_found false]. *)
  | Query_outcome of { txid : Txid.t }
  | Vote_2a of {
      txid : Txid.t;
      participant : int;
      vote : bool;
      ballot : int;
      participants : int list;
    }
      (** Paxos Commit phase-2a: offer [participant]'s Prepared/Aborted
          vote to an acceptor. Ballot 0 = the participant's own vote cast
          during prepare; ballot 1 = a closure vote (always [false])
          offered by a recovering party. Registration is first-writer-wins;
          answered with [R_vote_2b] carrying the registered value *)
  | Decision_query of { txid : Txid.t }
      (** Paxos Commit recovery: ask an acceptor for every vote it has
          registered for [txid]; answered with [R_decision], or [R_retry]
          while the acceptor is still replaying its log *)
  | Acceptor_forget of { txid : Txid.t }
      (** Paxos Commit garbage collection: the transaction is fully done
          (every participant acked phase 2), so the acceptor may drop its
          registered votes and release their log records. Best-effort —
          a lost forget only costs memory, never correctness. *)
  | Find_process of { pid : Pid.t }
  | Replica_commit of { update : Update.t }
      (** phase-2 propagation from the primary copy: a versioned delta of
          the pages one commit touched (§4.2 / §5.2). The secondary applies
          it if it is exactly the next version, ignores duplicates, and
          pulls a full snapshot on a gap. *)
  | Replica_pull of { fid : File_id.t }
      (** reconciliation: ask a co-host for a full versioned snapshot of
          its committed copy; answered with [R_update] *)
  | Replica_versions of { vid : int }
      (** reconciliation: ask a co-host for (ino, committed version) of
          every file on its copy of the volume; answered with
          [R_versions], or [R_retry] while the host is still recovering *)
  | Replica_read of {
      fid : File_id.t;
      reader : Owner.t;
      pid : Pid.t;
      pos : int;
      len : int;
    }
      (** serve committed bytes from a local secondary copy; answered with
          [R_data], or [R_retry] when the copy is degraded and the primary
          is still reachable (caller should go there instead) *)
  | Shard_lookup of { fid : File_id.t }
      (** ask the shard's directory site who owns the lock-manager role
          for [fid] now; answered with [R_owner] *)
  | Shard_claim of { fid : File_id.t; new_owner : int; from_epoch : int }
      (** epoch CAS at the directory site: move the role to [new_owner]
          iff the entry is still at [from_epoch]. Answered with [R_owner]
          carrying the post-claim state — the claim won iff it names
          [new_owner] at [from_epoch + 1]. *)
  | Shard_migrate of { fid : File_id.t; epoch : int; payload : string }
      (** the ownership transfer envelope: the old owner's marshalled
          lock table (retained-lock state included) riding to the new
          owner, stamped with the epoch the directory just granted. A
          receiver that has already seen a higher (or equal) epoch fences
          the straggler with [R_err]. *)
  | Shard_migrate_req of { fid : File_id.t; dst : int }
      (** ask the current owner to migrate the role to [dst] (recovery
          pulling a role home, or injected migration faults); answered
          [R_ok] on transfer, [R_retry] mid-migration, [R_redirect] when
          this site is not the owner *)
  | Shard_handoff of { fid : File_id.t }
      (** hand-off handshake: asked of the site a directory entry records
          as the last claimer, before the recorded owner adopts the role
          from a fresh table. Answered [R_int 1] while the claimer still
          has the transfer in flight (the old lock table — and the
          transactions it protects — are then still live, so adoption
          must wait), [R_int 0] once it has stood down or aborted the
          stranded owners. *)
  | Ensure_lock of {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      range : Byte_range.t;
      write : bool;
      momentary : bool;
      dirty : bool;
    }
      (** storage site → remote lock-manager: take (or confirm) the
          implicit §3.1 lock for a data access. [momentary] = process
          access (answered with [R_pieces], released again after the
          operation); [dirty] = the range overlaps uncommitted bytes of
          another owner, so the grant must be retained (Rule 2 splits
          across sites: the lock-manager retains, the storage site
          adopts). *)
  | Release_locks of {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      ranges : Byte_range.t list option;
      cancel : bool;
    }
      (** storage site → remote lock-manager: drop [owner]'s locks on
          [fid] — specific [ranges] (momentary release) or all of them
          (phase 2 / abort); [cancel] also evicts the owner's waiters *)
  | Ping
  | Health_query
      (** ask a kernel for its live health report (locus_health);
          answered with [R_health] — the health plane's one RPC, usable
          whether or not the windowed sampler is armed *)
  | Read_locked of {
      fid : File_id.t;
      reader : Owner.t;
      pid : Pid.t;
      pos : int;
      len : int;
    }
      (** read with implicit Shared-lock acquisition piggybacked on the
          read RPC itself — one round trip where lock-then-read costs two
          (the paper's own suggestion, §3.3). Transaction readers are
          answered with [R_data_locked] (the lock is retained and may be
          cached); process readers get a plain [R_data] (their momentary
          lock is already gone and must not be cached). *)
  | Batch of env list
      (** several requests bound for the same destination, coalesced into
          one wire message by the transport's batch window; processed in
          order and answered with [R_batch] *)

and env = { ctx : Locus_otrace.Otrace.ctx option; rid : rid option; payload : t }
(** What actually crosses the wire: the request plus optional causal span
    context, so a server-side span can parent itself under the remote
    caller's span and a transaction's tree stitches across sites — plus
    an optional exactly-once request id for the server-side reply cache. *)

and rid = { r_site : int; r_inc : int; r_seq : int; r_ack : int }
(** Exactly-once request identity (locus_chaos): [(r_site, r_inc,
    r_seq)] names one logical request of the client kernel at [r_site]
    (incarnation [r_inc]), no matter how many wire copies retries and
    network duplication produce; servers answer every copy after the
    first executes from a per-client reply cache instead of re-running
    the handler. [r_ack] is the client's completion watermark: all of its
    seqs at or below it are finished, so servers evict those entries and
    fence late copies of them as stale duplicates. *)

type reply =
  | R_ok
  | R_err of string
  | R_retry  (** target process in transit — resend (§4.1) *)
  | R_data of Bytes.t
  | R_int of int
  | R_fid of File_id.t
  | R_granted
  | R_granted_data of Bytes.t
      (** grant with the locked range's current contents piggybacked —
          the §5.2 prefetch optimization *)
  | R_granted_at of int  (** offset at which an append-mode lock landed *)
  | R_conflict of Owner.t list
  | R_redirect of int
      (** lock management for the file currently lives at this site *)
  | R_owner of { owner : int; epoch : int; prev : int }
      (** a shard-directory answer: the lock-manager role's current
          holder, epoch and hand-off source ([prev] = the site that
          issued the last successful claim; see {!Shard_handoff}) *)
  | R_pieces of Byte_range.t list
      (** the sub-ranges a momentary [Ensure_lock] actually granted (the
          uncovered pieces) — exactly what [Release_locks] must return *)
  | R_vote of bool
  | R_vote_2b of bool
      (** the value registered for the offered instance (the offerer's own
          vote iff it won the first-writer race) *)
  | R_decision of { participants : int list; votes : (int * bool) list }
      (** one acceptor's registrations for a transaction: the union of
          participant sets recorded with its votes, plus one
          [(participant, vote)] pair per registered instance *)
  | R_outcome of Log_record.status option
  | R_found of bool
  | R_update of Update.t
      (** full versioned snapshot of a committed replica (reconciliation) *)
  | R_versions of (int * int) list
      (** [(ino, committed version)] for every file of a volume copy *)
  | R_data_locked of Bytes.t
      (** data plus confirmation that an implicit Shared lock on the read
          range is now held (and retained) at the storage site — the
          client may cache it like an explicitly acquired lock *)
  | R_health of Locus_health.Report.site
      (** the answering site's structured health report *)
  | R_batch of reply list
      (** per-request replies for a [Batch], in request order *)

val envelope : ?ctx:Locus_otrace.Otrace.ctx -> ?rid:rid -> t -> env

val label : t -> string
(** Short static constructor name ("prepare", "commit2", ...), used as
    the server-side span name. *)

val pp : t Fmt.t
val pp_reply : reply Fmt.t
