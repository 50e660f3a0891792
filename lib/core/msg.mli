(** Kernel-to-kernel lightweight message types.

    One request/reply pair per kernel service, mirroring the paper's
    protocol inventory: remote file access and locking (§5.1), file-list
    merging and process migration (§4.1), the two-phase commit and abort
    messages (§4.2–4.3), outcome queries for recovery (§4.4), and replica
    propagation (§5.2). Each request constructor states the type of its
    reply ([Prepare] is answered with a [bool] vote, [Read] with the
    bytes), and an RPC yields [('r, error) result]. *)

type abort_reason = Deadlock | Orphan | Crash | Degraded_vote | Coordinator_lost | User
(** Why a transaction died, counted as [txn.abort.<reason>] with or
    without a span collector. [Degraded_vote]: a participant voted no
    (degraded replica, denied prepare, unreachable site);
    [Coordinator_lost]: a Paxos Commit resolver learned an abort from the
    acceptors; the others classify [Kernel.abort_transaction] calls. *)

type error =
  | Retry
      (** a transient refusal: the target process is in transit (§4.1),
          the site is still recovering, or the lock-manager role is
          mid-migration — resend *)
  | Redirect of int
      (** lock management for the file currently lives at this site *)
  | Refused of string  (** the handler refused the request, for this reason *)
  | Net of Transport.error
      (** no reply: the destination is down, partitioned or unhandled *)

val pp_error : error Fmt.t
(** The reason alone for [Refused], the transport's text for [Net]. *)

type grant =
  | Granted
  | Granted_data of Bytes.t
      (** grant with the locked range's current contents piggybacked —
          the §5.2 prefetch optimization *)
  | Conflict of Owner.t list  (** a no-wait request met these holders *)

type shard_owner = { owner : int; epoch : int; prev : int }
(** A shard-directory entry: the lock-manager role's current holder, its
    epoch and the hand-off source ([prev] = the site that issued the
    last successful claim; see {!Shard_handoff}). *)

type packed =
  | Value : 'r Type.Id.t * 'r -> packed
      (** a handler's answer with the witness of its type *)
  | Failed of error
(** What crosses the wire back: {!pack}ed by the server, {!unpack}ed by
    the caller against its own request. *)

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
      (** lock-and-extend at EOF, atomically (§3.2); answered with the
          offset at which the lock landed *)
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
      (** child's file-list travelling to the top-level process (§4.1) *)
  | Proc_arrive : { payload : string } -> unit t
      (** marshalled migration payload *)
  | Proc_exit_cleanup : { pid : Pid.t; fids : File_id.t list } -> unit t
  | Prepare : {
      txid : Txid.t;
      coordinator_site : int;
      files : File_id.t list;
      participants : int list;
    }
      -> bool t
      (** answered with the participant's vote. [participants] is the
          transaction's full participant-site set, empty under plain 2PC;
          under Paxos Commit each participant records it with its
          acceptor votes so any reader of a single registered vote learns
          which consensus instances exist *)
  | Commit_phase2 : { txid : Txid.t; files : File_id.t list } -> unit t
  | Abort_phase2 : { txid : Txid.t; files : File_id.t list } -> unit t
  | Abort_tree : {
      txid : Txid.t;
      pid : Pid.t;
      spare : Pid.t option;
      reason : abort_reason;
    }
      -> bool t
      (** cascade abort to the process [pid] at the target site (§4.3);
          [spare]'s fiber is not killed (it issued the abort). [false]:
          the site does not have [pid] running *)
  | Query_outcome : { txid : Txid.t } -> Log_record.status option t
  | Vote_2a : {
      txid : Txid.t;
      participant : int;
      vote : bool;
      ballot : int;
      participants : int list;
    }
      -> bool t
      (** Paxos Commit phase-2a: offer [participant]'s Prepared/Aborted
          vote to an acceptor. Ballot 0 = the participant's own vote cast
          during prepare; ballot 1 = a closure vote (always [false])
          offered by a recovering party. Registration is first-writer-wins;
          the reply is the registered value (the offerer's own vote iff it
          won the race) *)
  | Decision_query : { txid : Txid.t } -> (int list * (int * bool) list) t
      (** Paxos Commit recovery: ask an acceptor for every vote it has
          registered for [txid]: the union of the participant sets
          recorded with them, and one [(participant, vote)] pair per
          registered instance *)
  | Acceptor_forget : { txid : Txid.t } -> unit t
      (** Paxos Commit garbage collection: the transaction is fully done
          (every participant acked phase 2), so the acceptor may drop its
          registered votes and release their log records. Best-effort —
          a lost forget only costs memory, never correctness. *)
  | Find_process : { pid : Pid.t } -> bool t
  | Replica_commit : { update : Update.t } -> unit t
      (** phase-2 propagation from the primary copy: a versioned delta of
          the pages one commit touched (§4.2 / §5.2). The secondary applies
          it if it is exactly the next version, ignores duplicates, and
          pulls a full snapshot on a gap. *)
  | Replica_pull : { fid : File_id.t } -> Update.t t
      (** reconciliation: ask a co-host for a full versioned snapshot of
          its committed copy *)
  | Replica_versions : { vid : int } -> (int * int) list t
      (** reconciliation: ask a co-host for (ino, committed version) of
          every file on its copy of the volume *)
  | Replica_read : {
      fid : File_id.t;
      reader : Owner.t;
      pid : Pid.t;
      pos : int;
      len : int;
    }
      -> Bytes.t t
      (** serve committed bytes from a local secondary copy; [Retry] when
          the copy is degraded and the primary is still reachable (the
          caller should go there instead) *)
  | Shard_lookup : { fid : File_id.t } -> shard_owner t
      (** ask the shard's directory site who owns the lock-manager role
          for [fid] now *)
  | Shard_claim : { fid : File_id.t; new_owner : int; from_epoch : int } -> shard_owner t
      (** epoch CAS at the directory site: move the role to [new_owner]
          iff the entry is still at [from_epoch]. The reply is the
          post-claim entry — the claim won iff it names [new_owner] at
          [from_epoch + 1]. *)
  | Shard_migrate : { fid : File_id.t; epoch : int; payload : string } -> unit t
      (** the ownership transfer envelope: the old owner's marshalled
          lock table (retained-lock state included) riding to the new
          owner, stamped with the epoch the directory just granted. A
          receiver that has already seen a higher (or equal) epoch fences
          the straggler with [Refused]. *)
  | Shard_migrate_req : { fid : File_id.t; dst : int } -> unit t
      (** ask the current owner to migrate the role to [dst] (recovery
          pulling a role home, or injected migration faults) *)
  | Shard_handoff : { fid : File_id.t } -> bool t
      (** hand-off handshake: asked of the site a directory entry records
          as the last claimer, before the recorded owner adopts the role
          from a fresh table. [true] while the claimer still has the
          transfer in flight (the old lock table — and the transactions
          it protects — are then still live, so adoption must wait),
          [false] once it has stood down or aborted the stranded owners. *)
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
      (** storage site → remote lock-manager: take (or confirm) the
          implicit §3.1 lock for a data access. [momentary] = process
          access: the reply is the sub-ranges actually granted (the
          uncovered pieces), exactly what [Release_locks] must return
          after the operation; a transaction's lock answers [[]].
          [dirty] = the range overlaps uncommitted bytes of another
          owner, so the grant must be retained (Rule 2 splits across
          sites: the lock-manager retains, the storage site adopts). *)
  | Release_locks : {
      fid : File_id.t;
      owner : Owner.t;
      pid : Pid.t;
      ranges : Byte_range.t list option;
      cancel : bool;
    }
      -> unit t
      (** storage site → remote lock-manager: drop [owner]'s locks on
          [fid] — specific [ranges] (momentary release) or all of them
          (phase 2 / abort); [cancel] also evicts the owner's waiters *)
  | Ping : unit t
  | Health_query : Locus_health.Report.site t
      (** ask a kernel for its live health report (locus_health) — the
          health plane's one RPC, usable whether or not the windowed
          sampler is armed *)
  | Read_locked : {
      fid : File_id.t;
      reader : Owner.t;
      pid : Pid.t;
      pos : int;
      len : int;
    }
      -> Bytes.t t
      (** read with implicit Shared-lock acquisition piggybacked on the
          read RPC itself — one round trip where lock-then-read costs two
          (the paper's own suggestion, §3.3). A transaction reader's lock
          is retained, so the client may cache it. *)
  | Batch : env list -> packed list t
      (** several requests bound for the same destination, coalesced into
          one wire message by the transport's batch window; processed
          concurrently, answered in request order *)

and env = { ctx : Locus_otrace.Otrace.ctx option; rid : rid option; payload : any }
(** What actually crosses the wire: the request plus optional causal span
    context, so a server-side span can parent itself under the remote
    caller's span and a transaction's tree stitches across sites — plus
    an optional exactly-once request id for the server-side reply cache. *)

and any = Any : 'r t -> any  (** a request of any reply type *)

and rid = { r_site : int; r_inc : int; r_seq : int; r_ack : int }
(** Exactly-once request identity (locus_chaos): [(r_site, r_inc,
    r_seq)] names one logical request of the client kernel at [r_site]
    (incarnation [r_inc]), no matter how many wire copies retries and
    network duplication produce; servers answer every copy after the
    first executes from a per-client reply cache instead of re-running
    the handler. [r_ack] is the client's completion watermark: all of its
    seqs at or below it are finished, so servers evict those entries and
    fence late copies of them as stale duplicates. *)

val envelope : ?ctx:Locus_otrace.Otrace.ctx -> ?rid:rid -> 'r t -> env

val label : 'r t -> string
(** Short static constructor name ("prepare", "commit2", ...), used as
    the server-side span name. *)

val pack : 'r t -> ('r, error) result -> packed
(** The server side: a handler's result for this request, for the wire. *)

val unpack : 'r t -> packed -> ('r, error) result
(** The caller side: the reply to this request, at its type. Raises
    [Invalid_argument] if the reply answers a different kind of request. *)
