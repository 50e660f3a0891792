(** Configurable transaction op mixes for the traffic engine.

    A mix fixes the read/update ratio and the transaction-size range;
    record targets come from a {!Zipf} popularity distribution. [op] is
    the one op type of the open-loop {!Driver} and of the checker's
    workloads: both run it through {!Bank.txn}. *)

type op = Read of int | Update of int  (** 0-based record rank *)

type t = {
  read_frac : float;  (** probability an op is a read, in [0, 1] *)
  ops_min : int;  (** minimum ops per transaction (>= 1) *)
  ops_max : int;  (** maximum ops per transaction (inclusive) *)
}

val default : t
(** 50/50 reads and updates, 2–4 ops per transaction. *)

val make : ?read_frac:float -> ?ops_min:int -> ?ops_max:int -> unit -> t
(** Clamps out-of-range arguments instead of raising. *)

val gen_txn : t -> Prng.t -> Zipf.t -> op list
(** One transaction's ops: size uniform in [ops_min, ops_max], each op a
    read with probability [read_frac], target drawn from the Zipfian. *)

val pp_op : op Fmt.t
