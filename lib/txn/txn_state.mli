(** Volatile registry of active transactions, kept at the site of each
    transaction's top-level process (and migrating with it, §4.1).

    Tracks live member processes and the merged file-list. When the last
    child has exited and the top-level process reaches the transaction
    endpoint, the file-list here is the complete list of files used by the
    whole transaction, ready to drive two-phase commit. *)

type phase = Active | Committing | Aborting | Finished

type txn = {
  txid : Txid.t;
  mutable top_pid : Pid.t;
  mutable live_members : int;  (** member processes still running, incl. top *)
  mutable file_list : (File_id.t * int) list;  (** merged, with storage sites *)
  mutable phase : phase;
}

type t

val create : unit -> t

val start : t -> txid:Txid.t -> top_pid:Pid.t -> txn
val find : t -> Txid.t -> txn option
val remove : t -> Txid.t -> unit
val active : t -> txn list

val adopt : t -> txn -> unit
(** Install a transaction record that migrated here with its top-level
    process. *)

val release : t -> Txid.t -> txn option
(** Detach the record for shipment during migration. *)

val member_joined : t -> Txid.t -> unit
val member_exited : t -> Txid.t -> unit

val merge_files : txn -> (File_id.t * int) list -> unit
(** Merge a (child's) file-list into the transaction's list (§4.1). *)

val crash : t -> unit
