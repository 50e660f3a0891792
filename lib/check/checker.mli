(** Conflict-serializability checker over a recorded {!History}.

    The checker rebuilds, from the observation stream, exactly the
    guarantees §3 of the paper claims for transactions:

    - committed transactions form an acyclic conflict graph (edges are
      overlapping same-file accesses with at least one write, ordered by
      global emission order — WR, WW and RW conflicts; lost updates show
      up as RW/WW cycles);
    - a committed transaction never observes another owner's uncommitted
      data (no dirty reads).

    Accesses made outside the transaction discipline are classified as
    {e permitted} violations rather than errors, mirroring §3.4's
    deliberate serializability exceptions: any access by a
    [Owner.Process] (non-transaction work commits per file, visible
    immediately), and any access a transaction makes under a lock taken
    with [non_transaction:true] (e.g. directory updates, where long-held
    locks would throttle the whole system). *)

type violation =
  | Dirty_read of {
      reader : Txid.t;
      writer : Owner.t;
      fid : File_id.t;
      range : Byte_range.t;
      at : int;  (** virtual time of the read *)
    }
      (** a committed transaction read bytes from a write that was not
          yet committed (or never committed) at the time of the read *)
  | Cycle of Txid.t list
      (** committed transactions forming a conflict-graph cycle *)
  | Stale_read of {
      reader : Txid.t;
      fid : File_id.t;
      range : Byte_range.t;
      version : int;  (** the serving copy's committed version *)
      at : int;
    }
      (** one-copy serializability: a replicated volume served bytes that
          match neither the live overlay nor the newest committed state
          of the write history — the copy missed a committed update (or
          the reader's own pending write). Permitted when the reader was
          §3.4-relaxed or the copy was serving degraded (failover with
          the primary unreachable). *)
  | Fenced_grant of {
      fid : File_id.t;
      site : int;  (** the site that granted the lock *)
      owner_site : int;  (** the site the migration history designates *)
      epoch : int;  (** ownership epoch in force at the grant *)
      at : int;
    }
      (** epoch-fence oracle (locus_shard): a lock on [fid] was granted
          at a site other than the one the latest ownership migration
          (highest epoch with [at] ≤ grant time) installed as the fid's
          lock manager. A correct implementation fences every such
          stale-owner grant, so this is never permitted; it fires under
          [--break shard], which suppresses the old owner's stand-down. *)
  | Dup_apply of {
      client : int;  (** the request's originating site *)
      seq : int;  (** the client-incarnation-local request sequence *)
      site : int;  (** the server that executed twice *)
      label : string;  (** message label, e.g. ["merge"] *)
      at : int;  (** virtual time of the second execution *)
    }
      (** exactly-once oracle (locus_chaos): a server executed the same
          rid-tagged request twice within one (client incarnation, server
          incarnation) pair — the reply cache failed to absorb a retry or
          a duplicated wire copy, so a non-idempotent effect was applied
          twice. Never permitted; it fires under [--break dedup], which
          bypasses the reply cache. *)

type classified = { violation : violation; permitted : bool }

type report = {
  committed : Txid.t list;
  aborted : Txid.t list;
  unresolved : Txid.t list;
      (** begun but neither committed nor aborted (e.g. lost in a crash
          without recovery) — excluded from the graph *)
  reads_checked : int;
  edges : (Txid.t * Txid.t) list;
      (** deduplicated conflict edges, sorted by [(Txid.compare a,
          Txid.compare b)]. Their nodes are every txid whose first outcome
          is a commit, whether or not the history saw its [Begin]. *)
  violations : classified list;
      (** dirty reads, stale reads, fenced grants and duplicate applies,
          each kind in history order, then the cycles: the unpermitted ones (every
          edge strict) and then the permitted-only ones (the cycle needs a
          §3.4-relaxed edge), each group sorted by [List.compare
          Txid.compare] over the cycles' sorted members. *)
}

val check : History.t -> report
(** One pass over the events, plus one visit per overlapping pair of
    committed same-file accesses (a sweep line over each file's accesses
    in [lo] order), plus Tarjan's algorithm over an adjacency array of
    the V committed transactions and E edges: O(events + overlapping
    pairs + (V + E) log E). A read also walks the file's earlier writes,
    newest first, until it is fully shadowed. *)

val ok : report -> bool
(** No {e unpermitted} violations (permitted §3.4 ones may be present). *)

val unpermitted : report -> classified list
val permitted : report -> classified list

val pp_violation : violation Fmt.t
val pp_classified : classified Fmt.t
val pp : report Fmt.t
