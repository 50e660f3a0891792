(** Lightweight network message transport between simulated sites.

    Models the special-purpose kernel-to-kernel protocol Locus uses instead
    of a general-purpose protocol stack [Popek81]: a request is one message,
    the reply is one message, and the server side runs as a lightweight
    kernel activity at the destination site.

    Failure semantics match what the paper's recovery design needs:
    messages to crashed or partitioned sites vanish; a site crash kills all
    server activities running there; senders discover failures by timeout.
    Topology changes (crash, restart, partition) are announced to watchers,
    which is how the transaction layer learns to abort transactions that
    span a lost site (§4.3).

    On top of that sits the optional lossy-network model (locus_chaos):
    {!set_faults} arms per-message drop / duplication / jitter / reorder
    injection, driven by a PRNG split off the engine seed so every faulty
    run is as deterministic as a clean one. With no faults configured the
    delivery path is bit-for-bit the historical reliable model. *)

type ('req, 'resp) t

type error =
  | Timeout  (** no reply within the timeout: site down, partitioned, or crashed mid-request *)
  | No_handler  (** destination site has no registered kernel handler *)

val pp_error : error Fmt.t

val default_rpc_timeout_us : int
(** 30 s of virtual time — the single source of truth for the RPC timeout.
    [Kernel.Config.default] reads this constant, so the transport default
    and the kernel default can never drift apart again. *)

val create : ?rpc_timeout_us:int -> Engine.t -> n_sites:int -> ('req, 'resp) t
(** [create engine ~n_sites] makes a transport for sites [0 .. n_sites-1],
    all up and mutually connected. The one-way latency is the engine cost
    model's; [rpc_timeout_us] defaults to {!default_rpc_timeout_us}. *)

val engine : ('req, 'resp) t -> Engine.t
val n_sites : ('req, 'resp) t -> int
val sites : ('req, 'resp) t -> Site.t list

val set_handler :
  ('req, 'resp) t -> Site.t -> (src:Site.t -> 'req -> 'resp) -> unit
(** Install the kernel message handler for a site. The handler runs in a
    fresh fiber at the destination (it may block, perform nested RPCs,
    sleep, ...). Its return value is sent back as the reply. *)

(** {1 Messaging (call from inside a fiber)} *)

val rpc :
  ?batched:bool ->
  ('req, 'resp) t ->
  src:Site.t ->
  dst:Site.t ->
  'req ->
  ('resp, error) result
(** Send a request and await the reply. Charges send/receive CPU per the
    cost model and one-way latency each direction. A request to the local
    site still goes through the handler but skips the wire (no latency, no
    message counters) — matching the paper's local/remote asymmetry.

    [~batched:true] joins the current batch window for [dst] when
    coalescing is configured ({!set_batch}). It is the plain call exactly
    — same timing, same counters — when batching is unconfigured, the
    window is [0], or [src = dst] (local calls never pay a window). A
    crash of [src] kills the forming batch together with the fibers
    awaiting it. *)

val rpc_retry :
  ?batched:bool ->
  ?attempts:int ->
  ?backoff_us:int ->
  ?retry_if:('resp -> bool) ->
  ('req, 'resp) t ->
  src:Site.t ->
  dst:Site.t ->
  'req ->
  ('resp, error) result
(** [rpc_retry t ~src ~dst req] is {!rpc} wrapped in a bounded
    retry-with-backoff loop: up to [attempts] tries (default 5), sleeping
    [backoff_us] virtual microseconds before the second try (default
    100 ms) and doubling after each failure, capped at 16x the initial
    backoff. With network faults armed ({!set_faults}) each wait is
    instead drawn decorrelated-jitter style from [U(backoff, 3·prev)] so
    post-burst retry storms don't re-synchronize. Transport errors
    (timeout, no handler) always retry; [retry_if resp] (default: never)
    marks application-level replies that should also be retried, e.g. a
    "still recovering" answer. Returns the last result when attempts are
    exhausted. Used for phase-2 commit notifications so a single dropped
    message doesn't strand a participant until the next recovery pass
    (§4.2). With [~batched:true] each attempt (re)joins a batch window, so
    retries coalesce just like first attempts. *)

val send : ('req, 'resp) t -> src:Site.t -> dst:Site.t -> 'req -> unit
(** One-way, best-effort message (used for asynchronous phase-2 commit
    messages, §4.2). The reply, if any, is discarded. Never blocks. *)

(** {1 RPC coalescing}

    With batching configured, [rpc ~batched:true] calls bound for the same
    destination within a bounded window travel as one wire message with
    one reply: the transport collects the requests per (src, dst) pair,
    packs them with the caller-supplied codec, and fans the reply back
    out in request order. Concurrent 2PC rounds are the intended
    customers — prepares, phase-2 notifications and replica deltas headed
    to the same site share a message. Per-flush accounting:
    ["rpc.batches"], ["rpc.batched"], ["net.msg_saved"] counters and the
    ["rpc.batch_size"] histogram. *)

val set_batch :
  ('req, 'resp) t ->
  window_us:int ->
  wrap:('req list -> 'req) ->
  unwrap:('resp -> 'resp list option) ->
  ?trace:(site:Site.t -> size:int -> (unit -> unit) -> unit) ->
  unit ->
  unit
(** Configure coalescing: [wrap] packs several requests into one
    (the kernel's [Msg.Batch] envelope), [unwrap] recovers the individual
    replies from the combined one ([None] if the reply is not an unpacked
    batch — every waiter then sees the raw reply, so errors propagate).
    [trace] wraps each multi-request flush for span accounting. A window
    of [0] disables coalescing. *)

(** {1 Fault injection (locus_chaos)} *)

type faults = {
  drop : float;  (** per-message loss probability in [0, 1] *)
  dup : float;  (** per-message duplication probability in [0, 1] *)
  jitter_us : int;  (** extra delivery delay drawn uniformly from [0, jitter_us] *)
  reorder : int;
      (** reorder window: each copy may additionally be delayed by up to
          [reorder] one-way latencies, letting later messages overtake it *)
}

val no_faults : faults
(** All-zero fault rates: configured-but-harmless (useful as a base to
    override single fields of). *)

type fault_kind = [ `Drop | `Dup | `Reorder ]

val pp_fault_kind : fault_kind Fmt.t

val set_faults : ('req, 'resp) t -> faults option -> unit
(** Install (or clear) the cluster-wide fault model. Injection applies to
    every wire message — request and reply legs alike; local (src = dst)
    calls never touch the wire and are never faulted. All randomness comes
    from a PRNG split lazily off the engine stream, so runs remain a pure
    function of the seed, and a transport whose faults stay [None] never
    draws at all — existing seeds replay bit-for-bit. Injections are
    counted in the ["net.drop"], ["net.dup"], ["net.reorder"] counters and
    the ["net.jitter_us"] histogram. *)

val set_link_faults :
  ('req, 'resp) t -> src:Site.t -> dst:Site.t -> faults option -> unit
(** Per-link (directed) override of the cluster-wide model: [Some f]
    faults this link with [f] even if the global model is off; [None]
    makes the link reliable even if the global model is on. *)

val on_fault :
  ('req, 'resp) t -> (src:Site.t -> dst:Site.t -> fault_kind -> unit) -> unit
(** Watch injected faults (the kernel forwards them to the observation
    layer as [Obs.Net_fault] events). *)

(** {1 Topology} *)

val site_up : ('req, 'resp) t -> Site.t -> bool

val reachable : ('req, 'resp) t -> Site.t -> Site.t -> bool
(** Both sites up and in the same partition. A site always reaches
    itself while up. *)

val crash : ('req, 'resp) t -> Site.t -> unit
(** Take the site down: kill its fibers, drop in-flight messages to it,
    notify crash and topology watchers. Idempotent. *)

val restart : ('req, 'resp) t -> Site.t -> unit
(** Bring a crashed site back up and notify restart/topology watchers
    (the kernel's watcher runs transaction recovery, §4.4). *)

val partition : ('req, 'resp) t -> Site.t list list -> unit
(** Impose a partition: sites in different groups cannot communicate.
    Sites not mentioned keep their current group. *)

val heal : ('req, 'resp) t -> unit
(** Remove all partitions. *)

val on_crash : ('req, 'resp) t -> (Site.t -> unit) -> unit
val on_restart : ('req, 'resp) t -> (Site.t -> unit) -> unit

val on_topology_change : ('req, 'resp) t -> (unit -> unit) -> unit
(** Fires after any crash, restart, partition or heal. *)
