(** Named counters and bounded histograms gathered during a simulation
    run.

    The benchmark harness reads these to reproduce the paper's tables:
    disk-I/O counts drive Figure 5, and latency histograms drive Figure 6
    and the §6.2 locking measurements. Histograms are log-bucketed
    {!Hist}s: fixed memory, O(1) insert. *)

(** Bounded log2-bucketed histogram: bucket 0 holds the value 0, bucket
    [i >= 1] holds values in [[2^(i-1), 2^i)]. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  (** Record one non-negative value (negatives are clamped to 0). *)

  val count : t -> int
  val total : t -> int
  val min_value : t -> int
  val max_value : t -> int
  val mean : t -> float

  val buckets : t -> (int * int * int) list
  (** Non-empty buckets as [(lo, hi_exclusive, count)], ascending. *)

  val quantile : t -> int -> int
  (** [quantile t p] estimates percentile [p] (nearest-rank over buckets):
      the inclusive upper edge of the bucket where the cumulative count
      reaches the rank, clamped to the observed maximum. 0 when empty. *)

  val quantile_permille : t -> int -> int
  (** [quantile_permille t pm] is {!quantile} at per-mille resolution
      ([pm] in 0..1000), e.g. [quantile_permille t 999] for p999. *)

  val pp : t Fmt.t

  (** {2 Interval snapshots}

      A sampler copies the histogram at each window edge and diffs
      consecutive copies to get the distribution of just that window. *)

  type snap

  val empty_snap : snap
  val snapshot : t -> snap
  val diff : snap -> snap -> snap
  (** [diff cur prev] is the per-bucket difference (recordings made after
      [prev] was taken and before [cur]); negative drift clamps to 0. *)

  val snap_count : snap -> int
  val snap_total : snap -> int
  val snap_mean : snap -> float

  val snap_quantile : snap -> int -> int
  (** Nearest-rank percentile over a snapshot's buckets, clamped to the
      source histogram's lifetime maximum. 0 when the interval is empty. *)
end

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** [get t name] is the counter value, 0 if never touched. *)

val counter : t -> string -> int ref
(** [counter t name] interns [name] and returns the live cell behind it.
    Hot paths (the engine's [consume], the health sampler's per-window
    sources) hold the ref and bump it directly instead of paying a string
    hash + table probe per increment. The ref stays valid for the life of
    [t]; {!reset} zeroes it in place. *)

val reset : t -> string -> unit

val counters : t -> (string * int) list
(** All counters, sorted by name. Sorts on every call — an export-time
    operation (JSON / table rendering), never to be called per event or
    per sampler tick. *)

(** {1 Histograms} *)

val hist : t -> string -> int -> unit
(** Record one value into the named bounded histogram. *)

val histogram : t -> string -> Hist.t option
val histograms : t -> (string * Hist.t) list
(** All histograms, sorted by name. Export-time only, like {!counters} —
    keep it off per-tick paths. *)

val pp : t Fmt.t
(** Render all counters and histograms, for debugging. *)
