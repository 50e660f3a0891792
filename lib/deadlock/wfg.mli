(** Wait-for graphs and cycle detection.

    The Locus kernel does not detect deadlock; it exports lock state so a
    system process can build the wait-for graph and apply conventional
    techniques (§3.1, citing [Coffman 71]). This module is that system
    process's library: build a graph from {!Locus_lock.Lock_table.iter_waits}
    exports gathered across sites, find cycles, pick victims.

    Owners are interned to ints, and every query walks nodes in
    [Owner.compare] order and each node's successors likewise, so the
    results are those of a graph kept as an [Owner.Map] of [Owner.Set]s. *)

type t

val create : unit -> t
val add_edge : t -> waiter:Owner.t -> blocker:Owner.t -> unit

val of_tables : Locus_lock.Lock_table.t list -> t
(** Union of all edges exported by the given lock tables. *)

val edges : t -> (Owner.t * Owner.t) list
(** Every edge once, as [(waiter, blocker)], in [Owner.compare] order of
    the waiter, then of the blocker. *)

val find_cycle : t -> Owner.t list option
(** Some cycle [o1; o2; ...; on] with [o1] waiting on [o2], ..., [on]
    waiting on [o1]; [None] if the graph is acyclic. Deterministic: the
    same graph always yields the same cycle. *)

val victims : t -> Owner.t list
(** Minimal set of owners whose removal (abort) breaks every cycle, chosen
    greedily one cycle at a time. Within a cycle, transactions are
    preferred over plain processes and younger transactions over older
    ones, so the least work is lost. *)

val remove : t -> Owner.t -> unit
(** Delete every edge into or out of the owner. *)
