(** The bank-style client that the schedule explorer ([Locus_check.Workload])
    and the open-loop {!Driver} both run: files of 16-byte decimal
    counters, and a transaction that reads and increments them under
    the §3 record locks. Concurrent increments of one record are the
    lost-update and dirty-read shapes the locks must rule out. *)

val create : Locus_core.Api.env -> string -> vid:int -> records:int -> unit
(** [create env path ~vid ~records] creates [path] on volume [vid]
    holding [records] zero counters, then closes it. *)

val txn :
  ?piggyback:bool ->
  Locus_core.Api.env ->
  files:(int * string) list ->
  (int * Opmix.op) list ->
  Locus_core.Kernel.outcome
(** [txn env ~files ops] opens every file of [files] (a number and a
    path), then begins a transaction. Each [(f, op)] of [ops] runs
    against file number [f]. A read takes a Shared lock on its record
    and reads it; an update takes an Exclusive lock, reads the counter
    and writes it back plus one. The transaction then ends, the files
    close, and the outcome of [end_trans] is returned. With
    [piggyback], a read is one {!Locus_core.Api.pread_locked} whose
    Shared lock rides on the read message. *)

val outage :
  Locus_core.Kernel.cluster ->
  [ `Crash of int | `Partition of int ] ->
  for_us:int ->
  unit
(** Take a site down now and bring it back [for_us] virtual µs later:
    [`Crash s] crashes [s] and restarts it, [`Partition s] cuts [s] off
    from every other site and heals the network. *)
