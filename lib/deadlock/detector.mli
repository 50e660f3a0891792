(** The deadlock-resolution system process (§3.1).

    The kernel only exports its lock state; detection and the choice of
    victims are implemented outside it — "a variety of deadlock
    resolution and redo strategies may be implemented". This module
    packages the wait-for-graph scan with one victim-selection rule:
    abort the most recently started transaction, which loses the least
    work. *)

val victims : Locus_lock.Lock_table.t list -> Owner.t list
(** Build the global wait-for graph from the exported lock state and pick
    one victim per cycle: the youngest transaction in it. Transactions are
    always preferred over plain processes as victims. Deterministic. *)

val scan_report :
  Locus_lock.Lock_table.t list ->
  [ `No_deadlock | `Deadlocked of Owner.t list list ]
(** Diagnostic form: the list of distinct cycles (victim selection left to
    the caller). *)
