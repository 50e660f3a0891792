(** Deterministic discrete-event simulation engine with lightweight
    processes.

    The whole "distributed system" runs single-threaded over a virtual
    clock. Simulated processes ({e fibers}) are implemented with OCaml 5
    effect handlers: a fiber runs atomically until it suspends by sleeping
    or awaiting an {!Ivar.t}. Events scheduled for the same instant fire in
    scheduling order, so a run is a pure function of the initial seed and
    the program.

    This substitutes for the real Locus kernel's process and interrupt
    machinery (see DESIGN.md §2): it gives us repeatable failure injection,
    virtual-time latencies, and exact operation counts. *)

type time = int
(** Virtual time in microseconds. *)

type t

exception Killed
(** Raised inside a fiber when its site crashes or it is killed. Fibers
    must not swallow it: catch-alls should re-raise. *)

module Fiber : sig
  type handle

  val id : handle -> int
  val site : handle -> int
  val name : handle -> string
  val alive : handle -> bool
end

val create : ?seed:int -> unit -> t
val now : t -> time

val current_fiber : t -> Fiber.handle option
(** The fiber currently executing, if control is inside one. Observability
    layers use this to key ambient per-fiber state (e.g. span stacks)
    without threading a context argument through every call. *)

val stats : t -> Stats.t

val costs : t -> Costs.t
(** The cost model: {!Costs.default}, the paper's calibrated hardware. *)

val prng : t -> Prng.t

val schedule : ?delay:time -> t -> (unit -> unit) -> unit
(** [schedule ?delay t f] runs [f] at [now t + delay] (default 0). [f] runs
    outside any fiber and must not perform fiber effects. *)

val spawn : ?name:string -> ?site:int -> t -> (unit -> unit) -> Fiber.handle
(** Create a fiber that starts at the current instant. [site] tags the
    fiber for {!kill_site} (default [-1] = not attached to a site). *)

val kill : t -> Fiber.handle -> unit
(** Mark the fiber dead. Its next resumption unwinds with {!Killed}. *)

val kill_site : t -> int -> unit
(** Kill every live fiber tagged with the given site (site crash). *)

val set_site : t -> Fiber.handle -> int -> unit
(** Retag a fiber (process migration moves a process to another site, so a
    crash of the new site must kill it and a crash of the old must not). *)

val pending_events : t -> int
(** Live scheduled events not yet fired. A cancelled timer (e.g. an
    {!await_timeout} whose ivar filled first, as every answered RPC's
    timeout is) stays queued until the dispatch loop skips it without
    advancing the clock, or until the cancelled timers are over half the
    queue and are dropped together, but it is never counted: 0 means
    nothing is left that can change the state, which is how the health
    sampler knows the run has drained. *)

val events_fired : t -> int
(** Events dispatched over the engine's lifetime (cancelled events do not
    count). [bench/exp_load.ml] divides this by elapsed wall-clock time to
    report host-side events/s, which the CI engine-speed gate floors; the
    [Mutant.Load] self-test burns O(pending events) host CPU per event so
    that the gate must fail. *)

(** {1 Suspension points (must be called from inside a fiber)} *)

val sleep : time -> unit
(** Suspend the current fiber for a virtual duration. *)

val yield : unit -> unit
(** [sleep 0]: lets other events scheduled for this instant run. *)

module Ivar : sig
  (** Write-once synchronization cells, the only inter-fiber communication
      primitive. RPC replies, lock grants and process exits are all ivar
      fills. *)

  type 'a t

  val create : unit -> 'a t
  val peek : 'a t -> 'a option
end

val fill : t -> 'a Ivar.t -> 'a -> unit
(** Fill the cell and wake all waiters at the current instant. Raises
    [Invalid_argument] if already full. *)

val try_fill : t -> 'a Ivar.t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising when full. *)

val await : 'a Ivar.t -> 'a
(** Suspend until the ivar is filled; returns immediately if it already
    is. *)

val await_timeout : 'a Ivar.t -> timeout:time -> 'a option
(** [await_timeout iv ~timeout] is [Some v] if the ivar fills within the
    virtual duration, [None] otherwise. *)

val consume : t -> instr:int -> unit
(** Charge CPU time for [instr] instructions to the current fiber: sleeps
    for the equivalent virtual time per the cost model and bumps the
    ["cpu.instr"] counter (and ["cpu.instr.site<N>"] for site-tagged
    fibers, which is how per-site service times are measured). *)

(** {1 Running} *)

val run : ?max_events:int -> ?until:time -> t -> unit
(** Drain the event queue. Stops when the queue is empty, [until] (if
    given) is passed, or [max_events] (default 50 million) events have
    fired — the latter guards against accidental virtual livelock. An
    exception escaping a fiber aborts the run and is re-raised here. *)

val run_fn : ?seed:int -> (t -> unit) -> t
(** [run_fn f] creates an engine, calls [f] (which typically spawns
    fibers), runs to completion and returns the engine for inspection. *)
