(** A simulated logical volume (filesystem medium): non-volatile page
    store, inode table, and an appendable per-volume log area.

    This models the paper's storage substrate: files are sets of data pages
    named by an inode's page pointers, commits atomically overwrite the
    inode (§4), and transaction logs live on the same medium as the files
    they describe (§4.4). Everything stored through this interface survives
    a simulated site crash; whatever a kernel keeps in buffers does not.

    Every [read_page]/[write_page]/[write_inode]/[log_append] charges one
    disk I/O of virtual time and bumps the engine counters that the
    Figure 5 experiment reads. I/Os on one volume serialize: the volume
    keeps a busy-until horizon, so concurrent requests queue (disk
    contention). *)

type t

type inode = {
  ino : int;
  size : int;  (** file length in bytes *)
  pages : int array;  (** page slot for each page-sized extent; -1 = hole *)
  gens : int array;
      (** commit generation of each page: bumped every time a commit
          installs the page, so it tells two installs apart even when
          they reuse one slot number; 0 past the end of the array *)
  version : int;  (** bumped on every inode write; used by recovery checks *)
}

val create : Engine.t -> vid:int -> ?page_size:int -> unit -> t
(** [page_size] defaults to 1024 bytes (the paper's measurement setup,
    footnote 11). *)

val vid : t -> int
val page_size : t -> int
val engine : t -> Engine.t

(** {1 Data pages}

    Page contents are copied on both read and write: callers can never
    alias the non-volatile store. *)

val alloc_page : t -> int
(** Allocate a free page slot (in-memory bookkeeping, no I/O: allocation
    becomes durable only when the inode pointing at the page is written). *)

val free_page : t -> int -> unit

val pages_in_use : t -> int
(** Allocated and not yet freed — for storage-leak checks: after all
    commits and aborts settle, this must equal the number of page slots
    referenced by inodes. *)

val read_page : t -> int -> Bytes.t
(** Blocking read of one page; must run in a fiber. *)

val write_page : t -> int -> Bytes.t -> unit
(** Blocking write of one page; must run in a fiber. Short buffers are
    zero-padded to the page size. *)

val read_page_nosim : t -> int -> Bytes.t
(** Read without charging I/O — for assertions and test oracles only. *)

(** {1 Inodes} *)

val alloc_inode : t -> int

val read_inode : t -> int -> inode
(** Blocking; must run in a fiber. Raises [Not_found] for a free inode. *)

val write_inode : t -> inode -> unit
(** Blocking atomic overwrite of the descriptor block — this is the commit
    point of the single-file commit mechanism (§4). The stored inode gets
    a fresh [version]. *)

val install_inode : t -> inode -> unit
(** Blocking atomic overwrite that stores the inode at exactly
    [inode.version] (no auto-bump). Replica propagation uses this so a
    secondary's inode version mirrors the primary's commit counter;
    everything else should use {!write_inode}. *)

val inode_version_nosim : t -> int -> int
(** Current stored version of an inode, 0 if the inode is free. No I/O
    charge — replica version comparisons charge explicitly. *)

val read_inode_nosim : t -> int -> inode
val inode_numbers : t -> int list
(** All allocated inode numbers, ascending (no I/O charge — recovery scans
    charge explicitly). *)

val inode_exists : t -> int -> bool

(** {1 Per-volume log}

    An indexed record store used for the coordinator and prepare logs.
    Records are opaque strings (the transaction layer defines the codec).
    It holds only live records, and survives crashes like the pages. *)

val log_append : t -> tag:string -> string -> int
(** Blocking append; returns the record's index. With
    [two_write_log] (below) enabled, charges two I/Os — reproducing the
    uncorrected behaviour of footnote 9 — otherwise one. *)

val log_append_many : t -> tag:string -> string list -> int list
(** Append several records under a single submission. With group commit
    enabled the whole group rides one batch member — one shared force with
    whatever else joined the window; disabled, it degrades to one
    {!log_append} (one force) per record. The redo log uses this so a
    multi-page commit record costs one window, not [log_pages] of them. *)

val log_overwrite : t -> int -> tag:string -> string -> unit
(** Blocking in-place update of a live log record (e.g. writing the commit
    mark into a coordinator log, §4.2). One I/O. [Invalid_argument] for an
    index that is not live. *)

(** {2 Group commit}

    With a non-zero window, [log_append]/[log_overwrite]/[log_append_many]
    join a bounded batch window instead of forcing immediately: one shared
    force covers every record that joined, after which the records install
    and the submitting fibers resume. Records are never installed before
    the shared force completes, so a crash inside the window (or during
    the force) loses the whole batch atomically — exactly the guarantee an
    unforced redo record already has. Per-flush accounting:
    ["commit.batch_size"] histogram, ["log.group_forces"] and
    ["log.forces_saved"] counters. *)

val set_group_commit : t -> site:int -> window_us:int -> unit
(** Enable (window > 0) or disable (0, the default) group commit. [site]
    attributes the flusher fiber, so a crash of the hosting site kills the
    pending batch together with its waiters. *)

val reset_group_commit : t -> unit
(** Crash path: drop any batch still waiting in the window (its records
    were never forced, so losing them mirrors the disk's behaviour). *)

val set_group_trace : t -> (size:int -> (unit -> unit) -> unit) -> unit
(** Observability hook: wraps each group flush (the shared force plus
    record installation); [size] is the number of batch members. The
    kernel points this at a ["commit.batch"] tracing span. *)

val log_records : t -> (int * string * string) list
(** All live [(index, tag, payload)] records, oldest first. No I/O charge:
    recovery charges explicitly for its scan. *)

val log_delete : t -> int -> unit
(** Remove a record once commit/abort processing has finished (§4.4).
    No I/O charge (modelled as a lazy space reuse). *)

val set_two_write_log : t -> bool -> unit
(** Ablation knob for footnote 9: when [true], every {!log_append} costs
    two I/Os (data page + log inode) as in the paper's uncorrected
    implementation. Default [false]. *)

(** {1 Accounting} *)

val io_reads : t -> int
val io_writes : t -> int
val io_log_writes : t -> int
val reset_io_counters : t -> unit
