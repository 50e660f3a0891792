(** Watchdog threshold rules, evaluated at every window close over the
    freshest sampler values and per-site kernel state.

    Alarms are edge-triggered: one alarm when a condition first becomes
    true, re-armed once it clears — so a stuck in-doubt transaction is one
    alarm, not one per window. With [Mutant.Health] armed, evaluation is
    suppressed entirely (the CI inversion that proves the explorer's
    alarm-liveness oracle is live). *)

type alarm = {
  al_name : string;
      (** stable rule id: ["in_doubt_age"], ["lock_wait_p99"],
          ["retry_storm"], ["migration_flap"], ["reply_cache_pressure"],
          ["replica_degraded"] *)
  al_site : int;  (** raising site, or -1 for cluster-scope rules *)
  al_at_us : int;
  al_detail : string;
}

val pp_alarm : alarm Fmt.t

type thresholds = {
  in_doubt_age_us : int;  (** oldest in-doubt txn age before alarming *)
  lock_wait_p99_us : int;  (** per-window lock-wait p99 bound *)
  retry_storm : int;  (** RPC retries per window *)
  migration_flap : int;  (** ownership migrations per window *)
  dedup_pct : int;  (** reply-cache occupancy percent *)
  degraded_windows : int;  (** consecutive windows with degraded copies *)
}

val default : thresholds

type input = {
  in_site : int;
  in_now_us : int;
  in_in_doubt : int;
  in_in_doubt_max_age_us : int;
  in_lock_wait_p99_us : int;
  in_retries : int;
  in_migrations : int;
  in_dedup_entries : int;
  in_dedup_capacity : int;
  in_degraded_copies : int;
}

val zero_input : site:int -> now_us:int -> input
(** All-quiet input — callers overwrite just the fields their scope
    evaluates. *)

type t

val create : ?thresholds:thresholds -> unit -> t
val thresholds : t -> thresholds

val evaluate : t -> input -> alarm list
(** Rising-edge alarms for this window; [] under [Mutant.Health]. *)

val active : t -> string list
(** Currently-firing rule names, sorted. *)
