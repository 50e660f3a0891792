type alarm = {
  al_name : string;
  al_site : int;  (* -1 = cluster-scope *)
  al_at_us : int;
  al_detail : string;
}

let pp_alarm ppf a =
  if a.al_site < 0 then
    Fmt.pf ppf "%8d us cluster ALARM %s: %s" a.al_at_us a.al_name a.al_detail
  else
    Fmt.pf ppf "%8d us site%-2d  ALARM %s: %s" a.al_at_us a.al_site a.al_name
      a.al_detail

type thresholds = {
  in_doubt_age_us : int;
  lock_wait_p99_us : int;
  retry_storm : int;
  migration_flap : int;
  dedup_pct : int;
  degraded_windows : int;
}

(* Defaults chosen to stay structurally silent on clean runs: the lock
   p99 bound sits well above anything deadlock resolution lets a healthy
   schedule build up — a CHAIN of waiters each sitting out the 3 s
   patience of the one ahead can legitimately reach tens of seconds, so
   the bound targets the pathology where resolution can't help (locks
   retained by in-doubt transactions, which produce 100 s+ waits) — and
   the in-doubt age bound is far beyond a healthy 2PC resolution. *)
let default =
  {
    in_doubt_age_us = 2_000_000;
    lock_wait_p99_us = 60_000_000;
    retry_storm = 50;
    migration_flap = 8;
    dedup_pct = 90;
    degraded_windows = 3;
  }

type input = {
  in_site : int;  (* -1 = cluster-scope evaluation *)
  in_now_us : int;
  in_in_doubt : int;
  in_in_doubt_max_age_us : int;
  in_lock_wait_p99_us : int;  (* this window's interval p99 *)
  in_retries : int;  (* this window *)
  in_migrations : int;  (* this window *)
  in_dedup_entries : int;
  in_dedup_capacity : int;
  in_degraded_copies : int;
}

let zero_input ~site ~now_us =
  {
    in_site = site;
    in_now_us = now_us;
    in_in_doubt = 0;
    in_in_doubt_max_age_us = 0;
    in_lock_wait_p99_us = 0;
    in_retries = 0;
    in_migrations = 0;
    in_dedup_entries = 0;
    in_dedup_capacity = 1;
    in_degraded_copies = 0;
  }

(* Per-scope evaluation state: the active set makes alarms edge-triggered
   (raised on the false->true transition, re-armed when the condition
   clears), and the degraded streak counts consecutive bad windows. *)
type t = {
  th : thresholds;
  mutable active : string list;
  mutable degraded_streak : int;
}

let create ?(thresholds = default) () =
  { th = thresholds; active = []; degraded_streak = 0 }

let thresholds t = t.th

let evaluate t i =
  if Mutant.(armed Health) then []
  else begin
    t.degraded_streak <-
      (if i.in_degraded_copies > 0 then t.degraded_streak + 1 else 0);
    let th = t.th in
    let conds =
      [
        ( "in_doubt_age",
          i.in_in_doubt > 0 && i.in_in_doubt_max_age_us >= th.in_doubt_age_us,
          fun () ->
            Fmt.str "%d txn(s) in doubt, oldest %d us (limit %d)"
              i.in_in_doubt i.in_in_doubt_max_age_us th.in_doubt_age_us );
        ( "lock_wait_p99",
          i.in_lock_wait_p99_us >= th.lock_wait_p99_us,
          fun () ->
            Fmt.str "window lock-wait p99 %d us (limit %d)"
              i.in_lock_wait_p99_us th.lock_wait_p99_us );
        ( "retry_storm",
          i.in_retries >= th.retry_storm,
          fun () ->
            Fmt.str "%d RPC retries in one window (limit %d)" i.in_retries
              th.retry_storm );
        ( "migration_flap",
          i.in_migrations >= th.migration_flap,
          fun () ->
            Fmt.str "%d ownership migrations in one window (limit %d)"
              i.in_migrations th.migration_flap );
        ( "reply_cache_pressure",
          i.in_dedup_capacity > 0
          && i.in_dedup_entries * 100 >= th.dedup_pct * i.in_dedup_capacity,
          fun () ->
            Fmt.str "reply cache at %d/%d entries (limit %d%%)"
              i.in_dedup_entries i.in_dedup_capacity th.dedup_pct );
        ( "replica_degraded",
          t.degraded_streak >= th.degraded_windows,
          fun () ->
            Fmt.str "%d degraded copies for %d consecutive windows (limit %d)"
              i.in_degraded_copies t.degraded_streak th.degraded_windows );
      ]
    in
    List.filter_map
      (fun (name, firing, detail) ->
        let was = List.mem name t.active in
        if firing && not was then begin
          t.active <- name :: t.active;
          Some
            {
              al_name = name;
              al_site = i.in_site;
              al_at_us = i.in_now_us;
              al_detail = detail ();
            }
        end
        else begin
          if (not firing) && was then
            t.active <- List.filter (fun n -> n <> name) t.active;
          None
        end)
      conds
  end

let active t = List.sort String.compare t.active
