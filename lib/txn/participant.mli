(** Participant-site transaction state (second log level, §4.2).

    On receipt of a prepare message the participant flushes the
    transaction's modified records (shadow pages), writes one prepare log
    record per logical volume holding involved files — capturing the
    intentions lists and lock summary — and votes. After the coordinator
    decides, a commit or abort message triggers phase 2: applying or
    discarding the prepared intentions and (in the kernel) releasing the
    retained locks.

    All of this state is rebuilt from the volume logs by {!recover} after
    a crash; transactions found in doubt must ask their coordinator for
    the outcome (presumed abort if the coordinator no longer knows). *)

type t

val create : Filestore.t -> t
val filestore : t -> Filestore.t

val set_prepare_log_per_file : t -> bool -> unit
(** Footnote 10 ablation: write one prepare record per {e file} instead of
    one per volume. Default [false] (one per volume, the paper's intended
    design). *)

val prepare :
  t -> txid:Txid.t -> coordinator_site:int -> files:File_id.t list -> bool
(** Flush dirty pages, build intentions, write prepare log record(s) —
    one log I/O per involved volume (Figure 5 step 3). Returns the vote.
    Must run in a fiber. *)

val commit : t -> txid:Txid.t -> unit
(** Phase 2: apply every prepared intentions list (single-file commit) and
    drop the prepare log records. Idempotent — a retransmitted commit for
    an unknown transaction is a no-op (§4.4). Must run in a fiber. *)

val abort : t -> txid:Txid.t -> unit
(** Phase 2 abort: roll back volatile modifications if present, free
    flushed shadow pages, drop the log records. Idempotent. Must run in a
    fiber. *)

val is_prepared : t -> Txid.t -> bool

val prepared_transactions : t -> Txid.t list
(** Transactions currently prepared (in doubt) at this site. *)

val prepared_files : t -> Txid.t -> File_id.t list
(** Files named by the transaction's prepare records at this site. *)

val coordinator_of : t -> Txid.t -> int option
(** The coordinator site recorded with the transaction's prepare record,
    if it is prepared here. *)

val prepared_intentions : t -> Txid.t -> Intentions.t list

val recover : t -> (Txid.t * int) list
(** Reboot-time scan of all mounted volumes: rebuild the prepared table
    and return the in-doubt transactions with their coordinator sites.
    Charges one read I/O per surviving record. Must run in a fiber. *)

val crash : t -> unit
(** Drop the volatile table (the logs survive on their volumes). *)
