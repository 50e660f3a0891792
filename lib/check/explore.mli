(** Multi-seed schedule exploration.

    The engine is deterministic, so each seed names one exact
    interleaving; sweeping seeds re-runs the same kind of workload
    across many schedules (optionally with crash injection at 2PC
    decision points) and checks every resulting history for
    serializability. A failing seed is a reproducer by construction. *)

type config = {
  sites : int;
  txns : int;
  ops : int;
  records : int;
  replicas : int;
      (** copies per volume (1 = unreplicated; >1 enables primary-copy
          replication with commit propagation) *)
  batch_window : int;
      (** batching window in virtual µs (0 = off): enables group commit +
          RPC coalescing and piggybacked transactional reads, so the
          sweep proves 1SR with the commit-path batching live *)
  fault_every : int option;
      (** inject a fault on every k-th seed, alternating site
          crash + reboot with network partition + heal (and, under Paxos
          Commit, permanently killing a deciding coordinator) *)
  commit : Workload.commit_protocol;
      (** atomic-commitment protocol for every run of the sweep;
          [`Paxos f] adds the coordinator-kill fault to the rotation and
          the sweep then asserts the non-blocking liveness property *)
  shards : int;
      (** shard count for dynamic lock placement (0 = static placement);
          > 0 routes lock traffic through the shard directory and adds
          the forced mid-transaction ownership migration fault to the
          rotation, with every grant watched by the epoch-fence oracle *)
  policy : Locus_shard.Policy.t;
      (** migration policy for sharded runs (ignored when [shards = 0]) *)
  net_faults : Locus_net.Transport.faults option;
      (** lossy-network chaos layer for every run of the sweep: message
          drop / duplication / jitter / reordering (seed-deterministic)
          with exactly-once client RPCs — layered on top of whatever
          [fault_every] injects, so a sweep can prove 1SR and liveness
          under crashes {e and} a lossy network at once *)
  health_window : int;
      (** locus_health sampling window in virtual µs (0 = plane off).
          When armed, every seed also runs the two health oracles: a
          fault-free seed must raise {e no} alarm, and — since the fault
          rotation then adds [Kill_coordinator] even under 2PC — a seed
          whose participants end blocked in-doubt must have raised the
          [in_doubt_age] alarm (blocking itself is then the scenario,
          not a failure). [--break health] inverts the second oracle:
          with the watchdog muted those seeds fail. *)
  arrival : float option;
      (** open-loop arrival rate in transactions/sec: [Some r] generates
          every seed's spec with {!Workload.gen_open} (Poisson instants,
          Zipfian record popularity) so the sweep proves 1SR and liveness
          under arrival-clock release instead of the closed-loop
          fork-then-wait schedule; [None] keeps the classic generator *)
}

val default_config : config

type failure = {
  f_seed : int;
  f_spec : Workload.spec;
  f_report : Checker.report;
  f_blocked : (int * Txid.t) list;
      (** participants still in-doubt when the run drained (liveness);
          emptied when the health lane excuses the blocked state *)
  f_health : string list;
      (** health-oracle violations: false alarms on a clean seed, or a
          blocked run the watchdog slept through *)
}

type result = {
  checked : int;
  events : int;  (** total observation events across all runs *)
  permitted : int;  (** §3.4-permitted violations seen (informational) *)
  failures : failure list;
      (** seeds with unpermitted violations or blocked participants *)
}

val seeds : n:int -> from:int -> int list

val run_seed :
  config -> int -> Workload.spec * History.t * Checker.report * (int * Txid.t) list
(** Generate, execute and check the workload for one seed; the last
    component is the liveness oracle ({!Workload.blocked}). *)

val sweep :
  ?config:config ->
  ?progress:(int -> Checker.report -> unit) ->
  seeds:int list ->
  unit ->
  result

val shrink_failure : config -> failure -> Workload.spec
(** Minimize a failing workload (re-running under the same seed and
    crash plan) with {!Shrink.minimize}. *)
