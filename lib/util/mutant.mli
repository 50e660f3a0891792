(** The registry of deliberate bugs ("mutants") that prove each oracle
    works.

    Every promise the reproduction checks has an oracle — the checker's
    serializability and one-copy passes, the Paxos liveness check, the
    epoch fence, the duplicate-apply and alarm-liveness oracles, the
    bench perf gate — and each oracle is shown to be live by a mutant it
    must catch. {!with_armed} is the only way to arm one. DESIGN.md
    lists which test, CI lane or gate kills each one.

    [locusctl explore --break NAME] (repeatable) and the bench harness's
    [LOCUS_BREAK=NAME[,NAME...]] are the two ways in from outside. *)

type t =
  | Locks  (** Figure 1: shared and exclusive locks wrongly coexist. *)
  | Repl  (** §5.2: the primary drops commit propagation to secondaries. *)
  | Paxos  (** Paxos Commit acceptors ack votes without keeping them. *)
  | Shard  (** A migrating lock owner keeps granting at its stale epoch. *)
  | Dedup  (** Servers skip the exactly-once reply cache. *)
  | Health  (** The health watchdog never evaluates its rules. *)
  | Batch  (** Every batching optimisation degrades to unbatched. *)
  | Load  (** The engine burns O(pending events) host CPU per event. *)

val all : t list
(** Every mutant, in declaration order. *)

val name : t -> string
(** The lowercase spelling used by [--break] and [LOCUS_BREAK]. *)

val of_string : string -> t option
(** Inverse of {!name}. *)

val doc : t -> string
(** The one-line ["!! breaking ..."] banner printed when it is armed. *)

val armed : t -> bool
(** Is this mutant armed right now? One array load: it sits in the
    engine's per-event loop and in [Mode.access]. *)

val with_armed : t list -> (unit -> 'a) -> 'a
(** [with_armed ms f] runs [f] with [ms] armed in addition to whatever is
    already armed, then restores the previous set, on return or
    exception. Nests. *)

val of_env : unit -> t list
(** The comma-separated mutant names in [LOCUS_BREAK] ([[]] when unset or
    empty).
    @raise Invalid_argument on a name that is not in {!all}. *)
