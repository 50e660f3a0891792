(** The per-site Locus kernel and the cluster that ties the kernels
    together.

    A {!cluster} is a set of sites, each running one kernel instance over
    the shared simulated network. Each kernel composes the substrates:
    volumes + buffer cache (storage), the file store (shadow-page record
    commit), lock tables, the process table, the transaction registries
    (coordinator log, participant state, active-transaction table).

    The user-visible syscall layer is {!Api}; this module is the kernel
    interface those syscalls (and the kernel-to-kernel message handler)
    are built on. Everything here that performs I/O or messaging must run
    inside an engine fiber. *)

type t
type cluster

module Config : sig
  type commit_protocol =
    | Two_phase  (** the paper's §4.2 protocol (default) *)
    | Paxos of { f : int }
        (** Gray & Lamport's Paxos Commit: every participant vote is
            registered at 2f+1 acceptor sites (consecutive from the
            coordinator, via the replica-placement rule) before it counts,
            and the outcome is a deterministic function of an f+1 quorum
            of registrations — so participants of a crashed coordinator
            decide without waiting for its recovery. Requires
            [n_sites >= 2f+1]. *)

  type t = {
    n_sites : int;
    volumes : (int * Site.t list) list;
        (** [(vid, hosting sites)]: a logical volume may be replicated at
            several sites (first host = initial primary). Every site must
            host at least one volume (it needs a medium for its coordinator
            log). *)
    page_size : int;
    lock_cache : bool;  (** requesting-site lock cache (§5.1) — E2 ablation *)
    prefetch : bool;
        (** §5.2 optimization: remote lock grants carry the locked range's
            data, and covered reads are served from a requesting-site
            cache while the lock is held. Default off (the paper lists it
            as a further opportunity, not a measured feature). *)
    two_write_log : bool;  (** footnote 9 ablation *)
    async_phase2 : bool;
        (** paper behaviour: phase-2 commit messages are sent by a kernel
            process after the client resumes (§4.2); [false] = synchronous
            phase 2, for the E3/E4 ablation *)
    rpc_timeout_us : int;
        (** how long an RPC waits for its reply before the sender treats
            the destination as unreachable. One knob for the whole stack:
            it is threaded to the transport, whose default it shares
            ({!Transport.default_rpc_timeout_us}). *)
    batch_window_us : int;
        (** commit-path batching, two uses of one window. Group commit:
            concurrently committing transactions whose log forces land on
            the same volume within this window share a single force
            (coordinator log and prepare/redo log alike). RPC coalescing:
            prepare / phase-2 / replica-delta messages bound for the same
            site within this window travel as one [Msg.Batch] message with
            one reply. [0] (default) = force immediately, one message per
            request. *)
    commit_protocol : commit_protocol;
        (** atomic-commitment protocol; [Two_phase] (default) keeps every
            existing baseline bit-for-bit *)
    shards : int;
        (** locus_shard dynamic lock placement: number of directory shards
            serving "who owns the lock-manager role for fid X" queries.
            [0] (default) = static placement (storage-site lock tables).
            With [shard_policy = Threshold n] this is also §5.2's transfer
            of lock management to a site making heavy use of it. *)
    shard_policy : Locus_shard.Policy.t;
        (** when the lock-manager role chases the traffic: [Never], or
            [Threshold n] consecutive remote acquisitions from one site *)
    net_faults : Transport.faults option;
        (** the lossy-network chaos layer (locus_chaos): [Some f] arms
            seed-deterministic per-message drop / duplication / jitter /
            reordering on every wire leg AND switches client kernel RPCs
            to rid-tagged retried sends backed by server-side exactly-once
            reply caches. [None] (default) is the historical reliable
            network, bit-for-bit. *)
    health_window_us : int;
        (** locus_health windowed sampler: virtual-time width of one
            sampling window. [0] (default) = the health plane is unarmed —
            no sampler events, no series, no alarms, bit-for-bit identical
            runs. The {!Health_query} RPC answers either way. *)
  }

  val default : n_sites:int -> t
  (** One volume per site ([vid = site]), 1 KiB pages, paper-faithful
      knobs. Settings with one value in use are kernel constants: a
      128-page buffer cache per site, a 3 s lock-wait patience before a
      deadlock scan, the youngest-transaction victim rule, and the retry
      policy of each protocol loop. *)

  val with_replication : n_sites:int -> factor:int -> t
  (** Like {!default} but every volume is hosted at [factor] consecutive
      sites ({!Locus_repl.Placement.volumes}): primary-copy replication
      with commit propagation. [factor] is clamped to [1..n_sites]. *)

  val with_batching : window_us:int -> t -> t
  (** Set {!type-t.batch_window_us}: turn the commit-path batching on. *)

  val with_paxos : f:int -> t -> t
  (** Switch the commit protocol to [Paxos { f }]. Raises
      [Invalid_argument] unless [0 <= f] and [n_sites >= 2f+1]. *)

  val with_shards : shards:int -> ?policy:Locus_shard.Policy.t -> t -> t
  (** Enable locus_shard dynamic lock placement with [shards] directory
      shards. Raises [Invalid_argument] when [shards <= 0]. *)

  val with_net_faults :
    ?drop:float -> ?dup:float -> ?reorder:int -> ?jitter_us:int -> t -> t
  (** Arm the chaos layer with the given per-message fault rates (all
      default 0). Raises [Invalid_argument] on rates outside [0, 1) or
      negative window sizes. *)

  val with_health : ?window_us:int -> t -> t
  (** Arm the locus_health plane: sample counters / gauges / histogram
      interval merges every [window_us] (default 100 ms of virtual time)
      into rings of 64 windows, and evaluate the watchdog thresholds
      {!Locus_health.Rules.default} at every window close. Raises
      [Invalid_argument] when [window_us <= 0]. *)
end

val make : Engine.t -> Config.t -> cluster
(** Build sites, volumes, kernels; install message handlers, crash /
    restart / topology watchers. *)

val engine : cluster -> Engine.t
val config : cluster -> Config.t
val transport : cluster -> (Msg.env, Msg.packed) Transport.t
val kernel : cluster -> Site.t -> t
val kernels : cluster -> t list
val site : t -> Site.t
val cluster_of : t -> cluster

(** {1 Failure injection} *)

val crash_site : cluster -> Site.t -> unit
(** Crash: volatile kernel state vanishes, local fibers die, in-flight
    messages drop, topology watchers fire everywhere reachable. *)

val restart_site : cluster -> Site.t -> unit
(** Reboot: fresh volatile state, then the §4.4 recovery pass runs (as a
    fiber) before new transactions are admitted. *)

(** {1 Namespace (transparent, global)} *)

val create_file : cluster -> src:Site.t -> path:string -> vid:int -> File_id.t
(** Create a file on volume [vid] and bind [path] to it. Fiber-only. *)

val lookup : cluster -> string -> File_id.t option

val bind_path : cluster -> string -> File_id.t -> unit
(** Record a path binding in the flat index (kept alongside the real
    directory files for oracles and introspection). *)

val root_dir : cluster -> src:Site.t -> File_id.t
(** The root directory file, created lazily on the root volume (the
    lowest-numbered volume hosted at site 0). Fiber-only. *)

val path_of : cluster -> File_id.t -> string option
val storage_site : cluster -> File_id.t -> Site.t
(** Current primary update site for the file's volume replica set (§5.2);
    re-elected among reachable hosts when the primary is down. *)

val replica_sites : cluster -> File_id.t -> Site.t list

(** {1 Kernel services used by the Api layer (fiber-only)} *)

val rpc :
  ?batched:bool ->
  ?rid:Msg.rid ->
  cluster ->
  src:Site.t ->
  dst:Site.t ->
  'r Msg.t ->
  ('r, Msg.error) result
(** Send a kernel message and await its reply; transport failures surface
    as [Msg.Net]. [batched] (default [false]) joins the RPC batch window;
    [rid] is a request id the caller holds across its own retries. *)

val alloc_txid : t -> Txid.t
val procs : t -> Locus_proc.Proc_table.t
val txns : t -> Txn_state.t
val filestore : t -> Filestore.t
val participant : t -> Participant.t
val coord_log : t -> Coord_log.t
val lock_table : t -> File_id.t -> Lock_table.t option
val lock_tables : cluster -> Lock_table.t list
(** All lock tables of all live sites — the kernel-data interface the
    deadlock detector reads (§3.1). *)

val lock_authority_hint : cluster -> File_id.t -> Site.t option
(** Where clients believe lock management for the file currently lives
    (the locus_shard owner it last heard of); [None] means the storage
    site. *)

val note_lock_authority : cluster -> File_id.t -> Site.t -> unit

(** {1 Dynamic lock placement (locus_shard)} *)

val sharded : cluster -> bool
(** Is dynamic lock placement on ([Config.shards > 0])? *)

val shard_default_owner : cluster -> File_id.t -> Site.t
(** Epoch-0 owner of a never-claimed fid: the first configured host of
    its volume (static — derivable at every site without messages). *)

val force_migrate : cluster -> src:Site.t -> File_id.t -> dst:Site.t -> unit
(** Ask the file's current lock-manager, wherever it is, to hand the role
    to [dst] — the [Migrate_owner] fault and [locusctl]'s manual handle.
    Fiber-only; no-op when placement is static or the owner stays
    unreachable. *)

val shard_owner : cluster -> File_id.t -> (Site.t * int) option
(** Directory truth for the fid's lock-manager role: [(owner, epoch)].
    [None] when placement is static. Bypasses messaging (oracle). *)

val shard_status : cluster -> (File_id.t * string option * Site.t * int) list
(** Every claimed directory entry as [(fid, path, owner, epoch)], sorted
    by fid — drives [locusctl shard-status]. Entries still at their
    epoch-0 default owner are omitted. *)

val register_fiber : t -> Pid.t -> Engine.Fiber.handle -> unit
val forget_fiber : t -> Pid.t -> unit

val note_location : cluster -> Pid.t -> Site.t -> unit
val locate_process : cluster -> src:Site.t -> Pid.t -> Site.t option
(** Where a process runs: its location hint while that site is up, else
    a [Find_process] probe of every reachable site. Fiber-only. *)

val exit_ivar : cluster -> Pid.t -> unit Engine.Ivar.t
(** Created on demand; filled when the process exits (for [Api.wait]). *)

(** {1 Transactions} *)

type outcome = Committed | Aborted

val pp_outcome : outcome Fmt.t

type ready = Members_done | Abort_requested
(** What releases a top-level process parked at the transaction endpoint:
    the last member completed, or an abort arrived first. *)

val register_end_wait : t -> Txid.t -> ready Engine.Ivar.t
(** The top-level process parks here until all members have completed (or
    a racing abort decides first). *)

val register_transaction : cluster -> Txid.t -> top:Pid.t -> site:Site.t -> unit
(** Record a new transaction's top-level process in the volatile global
    registry used by cascade abort and topology sweeps. *)

val register_member : cluster -> Txid.t -> Pid.t -> Site.t -> unit
val transaction_top : cluster -> Txid.t -> Pid.t option
val update_member_site : cluster -> Txid.t -> Pid.t -> Site.t -> unit

val encode_migration : Locus_proc.Process.t -> Txn_state.txn option -> string
(** Serialize a migration payload for a [Proc_arrive] message (§4.1). *)

val commit_transaction : t -> Txn_state.txn -> outcome
(** Drive two-phase commit from this (coordinator) site: coordinator log,
    parallel prepares, decision, asynchronous phase 2 (§4.2). Call from
    the top-level process's fiber once every member has completed. *)

val abort_transaction :
  cluster -> ?spare:Pid.t -> ?reason:Msg.abort_reason -> src:Site.t -> Txid.t -> unit
(** Cascade abort (§4.3), run at the top-level process's site, which
    counts it once under [reason] (default [User]): roll back every
    member's files, which releases its locks and cancels its queued
    waits, kill member fibers (sparing the caller's) and wake a parked
    [end_trans] with [Aborted]. Safe to call from any fiber, including a
    member of the transaction itself. *)

val member_exit : cluster -> src:Site.t -> Locus_proc.Process.t -> unit
(** Run the member-process exit protocol for a transaction member: merge
    its file-list into the top-level process's transaction record with the
    §4.1 retry protocol, then clean up its channels and locks. *)

(** {1 Failure-injection hooks (tests)} *)

type hooks = {
  mutable on_coord_log_written : Txid.t -> unit;
      (** after Figure 5 step 1: the coordinator record is durable *)
  mutable on_participant_prepared : Site.t -> Txid.t -> bool -> unit;
      (** a participant just voted (after its prepare log write) *)
  mutable on_decided : Txid.t -> Log_record.status -> unit;
      (** after Figure 5 step 4: the commit/abort mark is durable *)
}

val hooks : cluster -> hooks
(** Mutable; install crash injections at exact protocol points. *)

(** {1 History observation (Locus_check)} *)

val set_observer : cluster -> Obs.sink option -> unit
(** Install (or remove) the per-cluster event sink. The kernel and the
    Api layer feed it one {!Obs.record} per begin / read / write / lock /
    unlock / outcome / file-commit action; [None] (the default) makes
    every emission point a cheap no-op. *)

val observe : cluster -> site:Site.t -> Obs.event -> unit
(** Emit an event to the installed observer (no-op without one). Exposed
    for the Api layer and for tests that fabricate histories. *)

(** {1 Causal span tracing (Locus_otrace)} *)

val set_otracer : cluster -> Locus_otrace.Otrace.t option -> unit
(** Install (or remove) the cluster's span collector. Like the observer,
    every emission point is a single option test when absent — no spans,
    no argument rendering, no overhead. While installed, the kernel opens
    spans around lock waits, every 2PC phase, replica propagation, lock
    release, message handling and recovery, and attaches span context to
    outgoing [Msg] envelopes so trees stitch across sites. *)

val otracer : cluster -> Locus_otrace.Otrace.t option

(** {1 Introspection for tests and benches} *)

val read_committed_oracle : cluster -> File_id.t -> string
(** Committed contents of a file at its primary site, bypassing all cost
    accounting. Test oracle only. *)

val active_transactions : cluster -> Txid.t list

val in_doubt_participants : cluster -> (Site.t * Txid.t) list
(** Prepared transactions still held by live sites: once the system has
    quiesced, a non-empty result means participants are blocked in-doubt.
    This is the explorer's liveness oracle — under Paxos Commit it must
    drain even when a coordinator dies between its decision and phase 2. *)

val acceptor : t -> Locus_pcommit.Acceptor.t
(** This site's Paxos Commit acceptor state (tests). *)

val dedup_cached : t -> int
(** Number of completed entries currently held by this kernel's
    exactly-once reply cache (tests: cache population / watermark
    eviction / crash clearing are asserted through this). *)

val reply_cache_capacity : int
(** Watermark at which a kernel's exactly-once reply cache starts
    evicting oldest-completed entries — the denominator of the health
    plane's dedup-occupancy gauge. *)

(** {1 Live health plane (Locus_health)} *)

val health_report : t -> Locus_health.Report.site
(** Build this kernel's structured health report right now: in-doubt
    count and max age, lock-table queue depths and hottest cells, WAL
    bytes, reply-cache occupancy, degraded replica copies, shard
    ownership. Works whether or not the windowed sampler is armed, and
    is exactly what a {!Msg.Health_query} RPC answers. *)

val health_poll_all :
  cluster -> src:Site.t -> Locus_health.Report.poll list
(** Monitor-side fan-out: poll every site from [src] (itself answered
    locally) with the per-RPC timeout; a site that cannot answer —
    crashed, partitioned, lost messages past the retry budget — comes
    back as [Unreachable]. Must run inside a fiber. *)

val health_alarms : cluster -> Locus_health.Rules.alarm list
(** Every watchdog alarm raised so far, oldest first. Empty when the
    plane is unarmed ([health_window_us = 0]). *)

val health_series : cluster -> (string * Locus_health.Series.t) list
(** The sampler's windowed time series, sorted by name; [[]] when the
    plane is unarmed. *)

val health_windows : cluster -> int
(** Number of sampling windows closed so far (0 when unarmed). *)

val health_active : cluster -> (int * string list) list
(** Currently-latched alarm conditions: [(site, rule names)] for every
    scope with at least one active rule; site [-1] is the cluster
    scope. *)

(** {1 Replication introspection} *)

type replica_host_status = {
  rh_site : int;
  rh_alive : bool;
  rh_fresh : bool;  (** not degraded (reconciliation pending) *)
  rh_primary : bool;
  rh_versions : (int * int) list;  (** (ino, committed version), sorted *)
}

type replica_volume_status = {
  rv_vid : int;
  rv_primary : int;  (** current primary update site *)
  rv_hosts : replica_host_status list;
}

val replica_status : cluster -> replica_volume_status list
(** Per-volume replica-set state, bypassing all cost accounting: current
    primary, per-host liveness/freshness and committed file versions.
    Drives [locusctl repl-status] and the replication tests. *)

val replica_fresh : cluster -> site:Site.t -> vid:int -> bool
(** Is the copy of [vid] at [site] fresh (not degraded)? *)
