(** The structured per-site health report answered over the
    [Msg.Health_query] kernel endpoint, and the monitor-side view of a
    fan-out poll ({!poll}: a partitioned or crashed site reads as
    [Unreachable] instead of hanging the monitor). *)

type hot_cell = {
  hc_fid : string;  (** printable file id of the contended lock table *)
  hc_waiters : int;  (** current wait-queue depth *)
  hc_locks : int;  (** granted locks on the table *)
}

type site = {
  hs_site : int;
  hs_at_us : int;  (** virtual time the report was built *)
  hs_in_doubt : int;  (** prepared txns this site cannot decide locally *)
  hs_in_doubt_max_age_us : int;  (** age of the oldest, 0 if none *)
  hs_active_txns : int;
  hs_lock_tables : int;
  hs_locks_held : int;
  hs_lock_waiters : int;  (** waiters summed over all local tables *)
  hs_hot_cells : hot_cell list;  (** deepest wait queues first, top 3 *)
  hs_wal_bytes : int;  (** log bytes written by this site's volumes *)
  hs_dedup_entries : int;  (** exactly-once reply-cache occupancy *)
  hs_dedup_capacity : int;
  hs_degraded_copies : int;  (** hosted replica copies missing updates *)
  hs_shards_owned : int;  (** lock-manager roles held (locus_shard) *)
}

type poll = Healthy of site | Unreachable of { u_site : int }

val pp_site : site Fmt.t
val pp_poll : poll Fmt.t

val pp_site_json : site Fmt.t
(** One JSON object (no trailing newline); schema checked in CI. *)

val pp_poll_json : poll Fmt.t

val json_escape : string -> string
