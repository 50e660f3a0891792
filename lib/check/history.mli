(** Per-run execution history: an append-only record of the cluster's
    {!Locus_core.Obs} events.

    The recorder never drops events — the serializability checker needs
    the complete run.
    Because the simulation is deterministic, a history is a pure function
    of (seed, program): re-running the same workload reproduces it
    bit-for-bit. *)

module Obs = Locus_core.Obs

type t

val create : unit -> t

val attach : t -> Locus_core.Kernel.cluster -> unit
(** Install this recorder as the cluster's observer (replacing any). *)

val record : t -> Obs.record -> unit
(** Append one event (also usable to fabricate histories in tests). *)

val of_events : Obs.record list -> t

val events : t -> Obs.record list
(** In emission order — the global serialization order of the run. *)

val length : t -> int
val clear : t -> unit
val pp : t Fmt.t
