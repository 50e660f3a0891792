(** Locking modes and the compatibility rules of Figure 1.

    [Unix] stands for conventional un-synchronized Unix access: a process
    touching a byte range without locking behaves as a [Unix]-mode holder
    of that range for the duration of the access. [Shared] permits
    concurrent readers (locked or conventional); [Exclusive] permits
    nothing else. Locks held by the same owner are always compatible with
    each other — in particular every process of one transaction may lock
    the same record exclusively (§3.1). *)

type t = Unix_access | Shared | Exclusive

val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string

val compatible : t -> t -> bool
(** [compatible held requested] — Figure 1 reduced to a grant decision:
    may a lock in mode [requested] coexist with a {e different} owner's
    lock in mode [held]? *)

val stronger : t -> t -> bool
(** [stronger a b] — does [a] grant strictly more protection than [b]?
    [Exclusive > Shared > Unix_access]. *)

val access : t -> t -> [ `Read_write | `Read | `None ]
(** The full Figure 1 cell: what access a holder of the first mode retains
    alongside a holder of the second. *)

val allows_read_by_other : t -> bool
(** May another owner read bytes covered by a lock in this mode? *)

val allows_write_by_other : t -> bool
(** May another owner write bytes covered by a lock in this mode? *)

val figure_1 : (t * (t * [ `Read_write | `Read | `None ]) list) list
(** The complete matrix, row-major, for the E1 reproduction. *)
