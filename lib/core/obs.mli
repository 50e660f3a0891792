(** Observable execution events for the serializability checker.

    The kernel and the syscall layer emit one {!record} per protocol-level
    action — begin / read / write / lock / unlock / commit / abort, plus
    the conventional per-file commit and abort of non-transaction work —
    to an optional per-cluster {!sink} (see [Kernel.set_observer]).

    The events carry the typed identities (owner, file, byte range, payload)
    that [Locus_check] needs to rebuild conflict graphs, so they must not
    be truncated or sampled. With no sink installed the cost is one
    [option] test per event site. *)

type access = {
  owner : Owner.t;  (** the transaction or the process itself *)
  pid : Pid.t;  (** issuing process *)
  fid : File_id.t;
  range : Byte_range.t;
  data : string;  (** bytes read or written *)
}

type event =
  | Begin of { txid : Txid.t; pid : Pid.t }
  | Read of access
  | Write of access
  | Lock of {
      owner : Owner.t;
      pid : Pid.t;
      fid : File_id.t;
      range : Byte_range.t;
      mode : Mode.t;
      non_transaction : bool;  (** a §3.4 serializability-exception lock *)
    }
  | Unlock of { owner : Owner.t; pid : Pid.t; fid : File_id.t; range : Byte_range.t }
  | Commit of { txid : Txid.t }  (** the commit mark is durable (§4.2 step 4) *)
  | Abort of { txid : Txid.t }
  | File_commit of { owner : Owner.t; fid : File_id.t }
      (** non-transaction commit: close / commit_file / process exit *)
  | File_abort of { owner : Owner.t; fid : File_id.t }
  | Replica_read of { access : access; version : int; degraded : bool }
      (** a read served from a replicated volume: emitted at the serving
          site with the serving copy's committed version. [degraded] marks
          failover service from a copy that may have missed updates
          (primary unreachable / reconciliation pending); the checker
          treats staleness of degraded reads as permitted. *)
  | Propagate of { fid : File_id.t; version : int; dst : int }
      (** primary pushed the versioned committed update to secondary [dst] *)
  | Reconcile of { fid : File_id.t; version : int; src : int }
      (** reconciliation pulled [fid] up to [version] from co-host [src] *)
  | Failover of { vid : int; fid : File_id.t }
      (** a degraded copy served a read because the primary was
          unreachable *)
  | Migrate of { fid : File_id.t; from_site : int; to_site : int; epoch : int }
      (** the lock-manager role for [fid] changed hands (locus_shard):
          emitted at the installing site when a transfer envelope lands,
          or when a fresh table is installed over a crashed owner. The
          epoch-fence oracle uses these to know which site was allowed to
          grant locks on [fid] in every interval of the run. *)
  | Net_fault of { dst : int; kind : [ `Drop | `Dup | `Reorder ] }
      (** the chaos layer (locus_chaos) injected a fault on the wire
          leaving [record.site] for [dst]. Informational: lets a trace
          reader correlate anomalies with injected loss. *)
  | Rpc_exec of { client : int; inc : int; seq : int; site_inc : int; label : string }
      (** a rid-tagged request executed its handler at [record.site]
          (running incarnation [site_inc]) and produced a cacheable reply.
          The exactly-once oracle flags a second execution of the same
          [(client, inc, seq, site, site_inc)] as a [Dup_apply] violation —
          the reply cache must answer every duplicate after the first.
          A re-execution after the server crashed (different [site_inc])
          is benign: the crash wiped the volatile state the first
          execution produced. *)
  | Alarm of { name : string; detail : string }
      (** the health watchdog (locus_health) raised the named threshold
          rule at [record.site] (site 0 stands in for cluster-scope
          rules). First-class events so the checker can assert both
          directions: clean runs raise none, and injected faults raise
          the matching one. *)

type record = { at : int; site : int; ev : event }
(** [at] is virtual time; global order within a run is the emission
    order (the simulation is single-threaded). *)

type sink = record -> unit

val pp_event : event Fmt.t
val pp : record Fmt.t
