(** The per-file lock list kept at the file's (primary) storage site
    (Figure 3, §5.1), with a FIFO wait queue.

    Pure local state: the kernel layers distribution on top (remote
    requests arrive by message, replies are cached at the requesting
    site). Blocking is expressed through grant callbacks so this module
    needs no scheduler dependency.

    Semantics implemented here:
    - same-owner locks never conflict: all member processes of one
      transaction share its locks (§3.1);
    - a lock request by an owner {e replaces} that owner's previous locks
      on the requested range — that is how ranges are extended, contracted,
      upgraded and downgraded (§3.2);
    - unlock by a transaction {e retains} the lock (two-phase locking,
      §3.3 rule 1) unless the lock was taken in non-transaction mode
      (§3.4); unlock by a non-transaction process releases it;
    - waiters are served in request order, but a waiter may overtake an
      earlier one whose requested range does not overlap or whose mode is
      compatible. *)

type t

type lock = {
  owner : Owner.t;
  pid : Pid.t;  (** the process that issued the request *)
  mode : Mode.t;
  range : Byte_range.t;
  non_transaction : bool;  (** §3.4 serializability-exception lock *)
  retained : bool;  (** unlocked by the program but held until commit *)
}

type waiter

val create : File_id.t -> t

val restore : File_id.t -> lock list -> t
(** Rebuild a table from transferred lock state — the receiving side of
    §5.2's lock-control migration. The wait queue does not transfer
    (waiter callbacks are site-local); senders must be waiter-free. *)

val fid : t -> File_id.t
val locks : t -> lock list
val lock_count : t -> int

val request :
  t ->
  owner:Owner.t ->
  pid:Pid.t ->
  mode:Mode.t ->
  range:Byte_range.t ->
  non_transaction:bool ->
  [ `Granted | `Conflict of Owner.t list ]
(** Non-blocking attempt. On [`Granted] the lock list is updated; on
    [`Conflict] it is untouched and the blocking owners are returned. *)

val enqueue :
  t ->
  owner:Owner.t ->
  pid:Pid.t ->
  mode:Mode.t ->
  range:Byte_range.t ->
  non_transaction:bool ->
  notify:(bool -> unit) ->
  waiter
(** Join the wait queue; [notify true] fires (once) when the lock is
    eventually installed, [notify false] if the wait is cancelled. Use
    after {!request} returned [`Conflict]. *)

val cancel : t -> waiter -> unit
(** Remove a waiter (requesting process died or timed out). Fires
    [notify false] if the waiter was still pending. *)

val cancel_owner : t -> Owner.t -> unit
(** Cancel every pending wait of the owner — used when the owning
    transaction is aborted out from under its blocked requests. *)

val unlock : t -> owner:Owner.t -> pid:Pid.t -> range:Byte_range.t -> unit
(** Explicit unlock of a range (see module doc for retention rules). *)

val release_owner : t -> Owner.t -> unit
(** Drop every lock of the owner — transaction commit or abort (§4.2
    releases "all corresponding retained locks"), or non-transaction
    process exit. Wakes eligible waiters. *)

val release_process : t -> Pid.t -> unit
(** Drop locks requested by a dead process on its own (non-transaction)
    behalf. Transaction-owned locks survive member-process exit. *)

(** {1 Access validation (conventional Unix access, Figure 1 row "Unix")} *)

val may_read : t -> reader:Owner.t -> range:Byte_range.t -> bool
val may_write : t -> writer:Owner.t -> range:Byte_range.t -> bool

val owner_covers :
  t -> owner:Owner.t -> range:Byte_range.t -> write:bool -> bool
(** Does [owner] hold locks covering all of [range], in modes sufficient
    for the given access? Used for implicit-lock decisions. *)

(** {1 Introspection} *)

val holders : t -> range:Byte_range.t -> Owner.t list
val retained_ranges : t -> Owner.t -> Byte_range.t list
val waiting : t -> int

val transferable : t -> bool
(** May this table ride a transfer envelope right now? True iff it has no
    live waiters — waiter callbacks are site-local and would be stranded
    by {!restore} on the receiving side. *)

val iter_waits : t -> (Owner.t -> Owner.t -> unit) -> unit
(** [iter_waits t f] calls [f waiter blocker] for each wait-for edge of
    the table, waiting requests in FIFO order — the raw material for the
    wait-for graph (§3.1: deadlock detection is done outside the kernel
    from exported lock state). A pair repeats once per conflicting lock
    or queued request behind it. Allocates nothing. *)

val waits_for : t -> (Owner.t * Owner.t list) list
(** For each waiting request, in FIFO order, the owners currently
    blocking it, sorted and without repeats: {!iter_waits} grouped by
    request. *)

val mark_retained : t -> Owner.t -> range:Byte_range.t -> unit
(** Force retention of the owner's locks on [range] (§3.3 rule 2 is
    enforced by the kernel when a transaction locks dirty records). *)

val pp : t Fmt.t
