(** The user-visible Locus system-call interface.

    A simulated user process is an engine fiber holding an {!env}. The
    calls mirror the paper's interface: Unix-style files and channels,
    the [Lock(file, length, mode)] record-locking call (§3.2), the
    [BeginTrans]/[EndTrans]/[AbortTrans] transaction envelope (§2), remote
    fork, and dynamic migration. Everything is location-transparent: the
    caller never says where a file is stored; the kernel routes to the
    storage site.

    All calls must run inside the process's fiber (they may block on
    locks, messages or disk). *)

type env

exception Error of string
(** Syscall failure (bad channel, lock denied after waiting, ...). A
    kernel request that fails reads ["<Msg.label>: <Msg.error>"], e.g.
    ["open: site down"]. *)

exception Process_failure of string
(** Raise (e.g. via {!fail}) to simulate a process failing — a failing
    transaction member aborts the whole transaction (§4.3). *)

(** {1 Process lifecycle} *)

val spawn_process :
  Kernel.cluster -> site:Site.t -> ?name:string -> (env -> unit) -> Pid.t
(** Create a top-level user process at a site. Callable from anywhere
    (including outside fibers, during scenario setup). *)

val fork : env -> ?site:Site.t -> ?name:string -> (env -> unit) -> Pid.t
(** Create a child process, locally or at a remote site. The child
    inherits open channels and transaction membership (§3.1). *)

val wait_pid : env -> Pid.t -> unit
(** Block until the process has exited (simulation convenience, standing
    in for Unix [wait]). *)

val exit_of : Kernel.cluster -> Pid.t -> unit Engine.Ivar.t
(** The exit ivar, for awaiting process completion from scenario code. *)

val migrate : env -> Site.t -> unit
(** Move this process to another site (§4.1). Its open channels, locks,
    transaction membership — and, for a top-level process, the transaction
    record itself — move with it. No-op if the destination is unreachable. *)

val fail : env -> string -> 'a
(** Simulate a process failure. *)

val pid : env -> Pid.t
val site : env -> Site.t
val cluster : env -> Kernel.cluster
val in_transaction : env -> bool

(** {1 Files (location-transparent)} *)

val creat : env -> string -> vid:int -> int
(** Create a file on logical volume [vid], bind the path, open it; returns
    a channel number. *)

val open_file : env -> string -> int
(** Name mapping + open: the expensive distributed step done once, so that
    locking can be cheap afterwards (§3.2). Paths resolve through real
    directory files; results are cached per process. *)

val mkdir : env -> string -> vid:int -> unit
(** Create a directory (intermediate components are created too). *)

val readdir : env -> string -> string list
(** Entry names of a directory, in creation order. *)

val close : env -> int -> unit
(** For a non-transaction process this commits its pending modifications
    to the file (the base system's atomic update on normal operation). *)

val seek : env -> int -> pos:int -> unit
val pos : env -> int -> int
val size : env -> int -> int

val set_append : env -> int -> bool -> unit
(** Append mode: subsequent lock requests are EOF-relative (§3.2). *)

val read : env -> int -> len:int -> Bytes.t
(** Read at the current position, advancing it. Inside a transaction, a
    shared lock is acquired implicitly if not already held (§3.1); outside
    one, the access behaves as a momentary Figure-1 "Unix" holder and may
    block on exclusive locks. *)

val write : env -> int -> Bytes.t -> unit
(** Write at the current position (implicit exclusive lock inside a
    transaction). The data is uncommitted until the transaction commits —
    or, for a non-transaction process, until [close]/{!commit_file}. *)

val pread : env -> int -> pos:int -> len:int -> Bytes.t
val pwrite : env -> int -> pos:int -> Bytes.t -> unit
val write_string : env -> int -> string -> unit

val commit_file : env -> int -> unit
(** Commit this process's pending modifications now (non-transaction
    processes; inside a transaction this is a no-op — the transaction
    commit point rules). *)

val abort_updates : env -> int -> unit
(** Discard this owner's uncommitted modifications to the file (the
    [abort x\[1\]] of Figure 2). *)

(** {1 Record locking (§3.2)} *)

type lock_result = Granted | Conflict of Owner.t list

val lock :
  env ->
  int ->
  len:int ->
  mode:Mode.t ->
  ?non_transaction:bool ->
  ?wait:bool ->
  unit ->
  lock_result
(** [lock env chan ~len ~mode ()] locks [len] bytes starting at the
    channel's current position — the paper's [Lock(file, length, mode)].
    [wait] (default true) queues on conflict; [~wait:false] returns
    [Conflict] instead. [non_transaction] requests the §3.4
    serializability-exception mode. In append mode the request is
    EOF-relative and atomically extends the lockable region; the channel
    position moves to the locked offset. *)

val unlock : env -> int -> len:int -> unit
(** Unlock [len] bytes at the current position. A transaction retains the
    lock (two-phase locking); a non-transaction releases it. *)

val read_locked : env -> int -> len:int -> Bytes.t
(** Like {!read}, but inside a transaction the implicit Shared-lock
    acquisition piggybacks on the read message itself (§3.3): one round
    trip where an explicit {!lock} followed by {!read} costs two. The
    storage site retains the lock until commit and confirms it in the
    reply, so it lands in the requesting-site lock cache exactly as if
    {!lock} had granted it. Ranges already covered by a cached lock,
    zero-length reads, and conventional (non-transaction) readers take
    the plain {!read} path. *)

val pread_locked : env -> int -> pos:int -> len:int -> Bytes.t
(** {!seek} + {!read_locked}. *)

(** {1 Transactions (§2)} *)

val begin_trans : env -> unit
val end_trans : env -> Kernel.outcome
(** Decrements the nesting level; at level zero in the top-level process,
    waits for all member processes to complete, then drives two-phase
    commit and reports the outcome. *)

val abort_trans : env -> unit
(** Abort the whole transaction (§4.3). The calling process survives and
    continues outside the transaction. *)
