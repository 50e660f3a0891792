(** Causal span tracing for the distributed kernel.

    A span is a named, timed interval of work at one site — a syscall, a
    lock wait, a 2PC phase, a message handler, a recovery pass — with a
    parent pointer to the span that caused it. Together the spans of a run
    form forests rooted at the top-level activities (one tree per
    transaction when the Api layer opens a ["txn"] root), and the trees
    stitch across sites: span context rides on [Msg] envelopes, so a
    participant's [prepare] span is a child of the coordinator's
    [2pc.prepare] span even though they ran on different sites.

    Design points, mirroring {!Obs}'s zero-overhead discipline:

    - The collector is installed on a cluster as an option; every kernel
      emission point tests the option and does nothing when absent.
    - Parentage is ambient: each engine fiber carries a stack of open
      spans (keyed by {!Engine.current_fiber}), so nested work needs no
      explicit context threading. Cross-site and cross-fiber edges pass an
      explicit {!ctx}.
    - Everything is deterministic: span ids come from a counter and times
      from the virtual clock, so the same seed yields the same trace.
    - Completed spans land in a bounded ring; overwritten spans are
      counted in {!dropped} and the exporters promote orphaned children
      to roots rather than emitting dangling parent ids.

    On top of the raw spans the collector aggregates (a) per-phase
    duration histograms (bounded, log-bucketed — see {!Stats.Hist}),
    (b) a lock-contention profile keyed by [(fid, byte-range bucket)],
    and (c) nothing else: abort reasons are ordinary {!Stats} counters
    ([txn.abort.*]) so they exist even without a collector. *)

type t

type ctx = { trace : int; span : int }
(** Wire context: the root (trace) id and the immediate parent span id.
    This is what crosses sites on a [Msg] envelope. *)

type span

val create : ?capacity:int -> Engine.t -> t
(** [capacity] bounds the completed-span ring (default 65536). *)

(** {1 Recording} *)

val start :
  ?parent:ctx -> ?args:(string * string) list -> t -> site:int -> cat:string ->
  string -> span
(** Open a span. The parent defaults to the current fiber's innermost
    open span (none → a new root); pass [?parent] to graft onto a remote
    or cross-fiber span. The span is pushed on the current fiber's
    ambient stack. *)

val finish : ?args:(string * string) list -> t -> span -> unit
(** Close a span: stamp the end time, pop it from its ambient stack
    (wherever it sits — out-of-order finishes are tolerated), record it
    in the ring, and feed its duration to the per-phase histogram keyed
    by span name. Idempotent. *)

val with_span :
  ?parent:ctx -> ?args:(string * string) list -> t -> site:int -> cat:string ->
  string -> (unit -> 'a) -> 'a
(** [start] / run / [finish], closing the span even if the thunk raises
    (including fiber kill, which unwinds through [Fun.protect]). *)

val current_ctx : t -> ctx option
(** Context of the current fiber's innermost open span, for attaching to
    outgoing messages or capturing before [Engine.spawn]. *)

val span_ctx : span -> ctx
(** Context rooted at this span (for cross-fiber grafting). *)

(** {1 Lock-contention profile} *)

val note_wait :
  t -> fid:string -> lo:int -> wait_us:int -> queue:int -> blockers:string list ->
  unit
(** Account one completed lock wait against the [(fid, lo / 1024)]
    contention cell (one cell per 1 KiB page): total/max wait, max queue
    depth, and per-blocker counts. *)

type wait_profile = {
  wp_fid : string;
  wp_range_lo : int;  (** bucket start offset in bytes *)
  wp_range_len : int;  (** bucket width in bytes *)
  wp_waits : int;
  wp_total_wait_us : int;
  wp_max_wait_us : int;
  wp_max_queue : int;
  wp_blockers : (string * int) list;
  (** top blockers, most waits first (name-tie-broken); bounded to the 8
      hottest distinct owners per cell — approximate beyond that, with
      the lowest-count entry evicted deterministically *)
}

val contention : t -> wait_profile list
(** Hottest cells first (by total wait time). *)

(** {1 Ownership migrations (locus_shard)} *)

type migration = {
  mg_fid : string;
  mg_from : int;
  mg_to : int;
  mg_epoch : int;
  mg_at : int;  (** virtual time of the transfer install *)
}

val note_migration :
  t -> fid:string -> from_site:int -> to_site:int -> epoch:int -> unit
(** Record one lock-manager ownership transfer (stamped with the virtual
    clock); exported under ["migrations"] by {!export_metrics}. *)

val migrations : t -> migration list
(** Oldest first. *)

(** {1 Reading back} *)

val spans : t -> (int * int option * string * string * int * int * int) list
(** Completed spans oldest-first as
    [(id, parent, name, cat, site, start_us, end_us)] — the test-facing
    projection. *)

val span_count : t -> int
val dropped : t -> int

val capacity : t -> int
(** Ring capacity the tracer was created with. *)

val phases : t -> (string * Stats.Hist.t) list
(** Per-span-name duration histograms, sorted by name. *)

val phase : t -> string -> Stats.Hist.t option

(** {1 Exporters} *)

val export_chrome : ?extra:(string * string) list -> t -> Format.formatter -> unit
(** Chrome trace-event JSON (load in [chrome://tracing] or Perfetto):
    one ["X"] complete event per span, [ts]/[dur] in virtual µs, [pid] =
    site, [tid] = trace id, and [args] carrying [id]/[parent]/[trace].
    Spans whose parent fell off the ring are emitted without a parent, so
    every parent id present in the file resolves. [extra] adds
    string pairs to [otherData]. *)

val export_metrics : t -> Stats.t -> Format.formatter -> unit
(** Machine-readable metrics JSON: per-phase histograms ([phases], with
    p50/p95/p99/p999), the lock-contention profile ([lock_contention]),
    the abort-reason taxonomy ([aborts], read from the [txn.abort.*]
    counters), span-ring drop accounting ([trace]: spans held, dropped
    count, ring capacity), and all raw counters ([counters]). *)
