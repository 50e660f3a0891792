(** Generated transactional workloads for the schedule explorer.

    A workload is {!Locus_load.Bank}'s increment transaction over one
    shared file of fixed-width records: each transaction runs at some
    site and performs a sequence of locked record reads and
    read-increment-write updates ({!Locus_load.Opmix.op}, printed [r3]
    and [u1]). Concurrent updates of the same record are exactly the
    lost-update / dirty-read shapes the checker must prove impossible
    under the §3 locking rules. *)

type txn_spec = {
  site : int;
  at_us : int;
      (** open-loop arrival instant in virtual µs from driver start; [0]
          (the closed-loop default) forks immediately in spec order *)
  ops : Locus_load.Opmix.op list;  (** against the one shared file *)
}

type spec = { n_sites : int; n_records : int; txns : txn_spec list }

type crash = {
  victim : int;  (** site to crash *)
  after_decides : int;  (** crash at the Nth 2PC decide event *)
  restart_delay : int;  (** virtual microseconds until reboot *)
}

type fault =
  | Crash of crash
  | Partition of {
      victim : int;  (** site to isolate from everyone else *)
      after_decides : int;  (** partition at the Nth 2PC decide event *)
      heal_delay : int;  (** virtual microseconds until the partition heals *)
    }
  | Kill_coordinator of { after_decides : int }
  | Migrate_owner of { after_decides : int }
      (** Failure injected mid-run at a 2PC decision point: either a
          crash + reboot, a network partition + heal, or — the classic
          blocking window — killing the Nth deciding transaction's own
          coordinator site right between its durable decision and phase 2,
          with {e no} restart. Under 2PC [Kill_coordinator] leaves that
          transaction's participants in-doubt forever; under Paxos Commit
          they must still decide from the acceptor quorum ({!blocked}
          asserts this). Partitions exercise the replication
          degrade / reconcile path — the isolated site's replicas go
          stale, serve degraded reads, and must catch up after the
          heal. [Migrate_owner] needs a sharded run ([run ~shards]): from
          the Nth decide on, it forces the shared file's lock-manager
          role to a rotating destination site at every decide point, so
          hand-offs land in the middle of live transactions and phase-2
          windows — 1SR and the epoch-fence oracle must both hold. *)

type commit_protocol = [ `Two_phase | `Paxos of int ]
(** Atomic-commitment protocol for a run: plain 2PC or Paxos Commit
    tolerating [f] faults (2f+1 acceptor sites). *)

val gen :
  seed:int ->
  ?sites:int ->
  ?txns:int ->
  ?ops:int ->
  ?records:int ->
  unit ->
  spec
(** Deterministic workload from a seed (defaults: 2 sites, 4 txns of 4
    ops over 4 records — small enough to conflict constantly). *)

val gen_open :
  seed:int ->
  ?sites:int ->
  ?txns:int ->
  ?ops:int ->
  ?records:int ->
  ?flash:int * int * float ->
  rate:float ->
  unit ->
  spec
(** Open-loop variant of {!gen}: transactions carry Poisson arrival
    instants at [rate]/sec ({!Locus_load.Arrival}) and draw their records
    from a Zipfian popularity law ({!Locus_load.Zipf}), so the driver
    releases them on the arrival clock instead of all at once.
    [flash:(at_us, len_us, mult)] adds a flash-crowd burst to the arrival
    shape. The same seed still names the same spec byte-for-byte. *)

val run :
  ?fault:fault ->
  ?replicas:int ->
  ?batch_window:int ->
  ?commit:commit_protocol ->
  ?shards:int ->
  ?policy:Locus_shard.Policy.t ->
  ?net_faults:Locus_net.Transport.faults ->
  ?health:int ->
  ?seed:int ->
  spec ->
  History.t * Locus_core.Locus.sim
(** Execute the workload in a fresh simulated cluster with a recorder
    attached; returns the complete history and the drained simulation.
    [seed] also perturbs engine event ordering, so the same [spec] under
    different seeds explores different schedules. [replicas > 1] hosts
    every volume at that many sites
    ({!Locus_core.Kernel.Config.with_replication}), so commits propagate
    and reads may be served by secondary copies — the checker's
    one-copy-serializability rules then apply. [batch_window > 0]
    enables the commit-path batching
    ({!Locus_core.Kernel.Config.with_batching}: group commit + RPC
    coalescing at that window) and switches transactional reads to the
    piggybacked {!Locus_core.Api.pread_locked} path, so the explorer
    proves 1SR with every batching optimisation live. [shards > 0]
    turns on dynamic lock placement
    ({!Locus_core.Kernel.Config.with_shards}) with the given migration
    [policy], so lock traffic flows through the shard directory and the
    role can move mid-run. [net_faults] arms the lossy-network chaos
    layer ({!Locus_core.Kernel.Config.net_faults}): seed-deterministic
    message drop / duplication / jitter / reordering plus rid-tagged
    exactly-once client RPCs, with the checker's [Dup_apply] oracle
    watching every rid-tagged handler execution. [health > 0] arms the
    locus_health plane ({!Locus_core.Kernel.Config.with_health}) at that
    window; [Kill_coordinator] runs then keep the engine alive past the
    in-doubt age threshold so the watchdog's [in_doubt_age] alarm —
    which the health sweep asserts — has time to fire. *)

val blocked : Locus_core.Locus.sim -> (int * Txid.t) list
(** Liveness oracle over a drained simulation: [(site, txid)] for every
    prepared transaction a live site still holds. Non-empty means
    participants ended the run blocked in-doubt — expected under 2PC with
    [Kill_coordinator], a liveness violation under Paxos Commit. *)

val pp : spec Fmt.t
val pp_txn_spec : txn_spec Fmt.t
