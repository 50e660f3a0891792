(** Mutable 4-ary min-heap keyed by [(time, seq)].

    The sequence number makes event ordering a total order, which in turn
    makes the whole simulation deterministic: two events scheduled for the
    same instant fire in scheduling order.

    The heap is laid out as parallel arrays (times / seqs / values), so a
    [push]/[pop_into] cycle performs no allocation — this is the
    simulator's hot path and the open-loop traffic engine pushes it to
    millions of events per second. Each level of a sift moves one entry
    into a hole and the sifted entry is written once, at its final slot.
    A slot that {!pop}, {!pop_into} or {!retain} vacates no longer
    references its value. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty heap; [dummy] fills the slots that hold no value. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> seq:int -> 'a -> unit

type 'a slot = { mutable s_time : int; mutable s_seq : int; mutable s_value : 'a }
(** Caller-owned destination for {!pop_into}: reusing one slot across a
    dispatch loop removes the per-event [Some (t, s, v)] allocation of
    {!pop}. *)

val make_slot : 'a -> 'a slot
(** [make_slot dummy] is a fresh slot; [dummy] fills it until the first
    successful {!pop_into}. *)

val pop_into : 'a t -> 'a slot -> bool
(** Remove the minimum [(time, seq, value)] into [slot]. [false] (slot
    untouched) when the heap is empty. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum [(time, seq, value)]. Allocating
    convenience form of {!pop_into}. *)

val retain : 'a t -> ('a -> bool) -> unit
(** [retain t keep] drops every entry whose value fails [keep] and
    rebuilds the heap in O(n). The kept entries pop in the same
    [(time, seq)] order as before. *)

val min_time : 'a t -> int
(** Time of the minimum element, [max_int] when empty. Allocation-free,
    for the dispatch loop. *)
