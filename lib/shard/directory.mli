(** The authoritative shard directory: who owns the lock-manager role
    for a file right now, and at which epoch.

    One logical table for the whole cluster, with each shard's entries
    served by a deterministic directory site
    ({!Locus_repl.Placement.directory}) — runtime lookups and claims
    travel as kernel messages to that site so they carry network cost.
    Ownership changes are epoch CAS operations: exactly one of two racing
    claimants wins, and the losing transfer's stale epoch fences it at
    every receiver. *)

type t

val create : n_shards:int -> n_sites:int -> t
(** Raises [Invalid_argument] unless both arguments are positive. *)

val n_shards : t -> int

val shard_of : t -> File_id.t -> int
(** Deterministic fid → shard hash, stable across OCaml versions. *)

val site_of : t -> File_id.t -> Site.t
(** The directory site serving this fid's shard. *)

val lookup : t -> File_id.t -> default:Site.t -> Site.t * int * Site.t
(** [(owner, epoch, prev)] of the lock-manager role; [prev] is the site
    that issued the last successful claim (the hand-off source — see
    {!claim}). An unclaimed entry is [(default, 0, default)] — by
    convention the file's storage site. *)

val claim :
  t -> File_id.t -> default:Site.t -> new_owner:Site.t -> from_epoch:int ->
  claimer:Site.t ->
  (int, Site.t * int) result
(** Compare-and-swap: succeeds only when [from_epoch] is the entry's
    current epoch, advancing it, recording [claimer] as the hand-off
    source and returning the new epoch. On a stale [from_epoch] returns
    the current [(owner, epoch)] unchanged. Recording [claimer] is what
    lets a recorded owner that never received the transfer envelope
    decide whether adoption is safe: it must first confirm the claimer
    is no longer mid-hand-off (or has crashed, taking its lock table —
    and, via the crash sweep, the stranded owners — with it). *)

val entries : t -> (File_id.t * Site.t * int) list
(** All claimed entries, sorted by fid — introspection only. *)
