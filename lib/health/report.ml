type hot_cell = { hc_fid : string; hc_waiters : int; hc_locks : int }

type site = {
  hs_site : int;
  hs_at_us : int;
  hs_in_doubt : int;
  hs_in_doubt_max_age_us : int;
  hs_active_txns : int;
  hs_lock_tables : int;
  hs_locks_held : int;
  hs_lock_waiters : int;
  hs_hot_cells : hot_cell list;  (* deepest queues first, bounded *)
  hs_wal_bytes : int;
  hs_dedup_entries : int;
  hs_dedup_capacity : int;
  hs_degraded_copies : int;
  hs_shards_owned : int;
}

type poll = Healthy of site | Unreachable of { u_site : int }

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pp_site_json ppf s =
  Fmt.pf ppf
    "{\"site\": %d, \"at_us\": %d, \"reachable\": true, \"in_doubt\": %d, \
     \"in_doubt_max_age_us\": %d, \"active_txns\": %d, \"lock_tables\": %d, \
     \"locks_held\": %d, \"lock_waiters\": %d, \"hot_cells\": ["
    s.hs_site s.hs_at_us s.hs_in_doubt s.hs_in_doubt_max_age_us
    s.hs_active_txns s.hs_lock_tables s.hs_locks_held s.hs_lock_waiters;
  List.iteri
    (fun i c ->
      Fmt.pf ppf "%s{\"fid\": \"%s\", \"waiters\": %d, \"locks\": %d}"
        (if i = 0 then "" else ", ")
        (json_escape c.hc_fid) c.hc_waiters c.hc_locks)
    s.hs_hot_cells;
  Fmt.pf ppf
    "], \"wal_bytes\": %d, \"dedup_entries\": %d, \"dedup_capacity\": %d, \
     \"degraded_copies\": %d, \"shards_owned\": %d}"
    s.hs_wal_bytes s.hs_dedup_entries s.hs_dedup_capacity s.hs_degraded_copies
    s.hs_shards_owned

let pp_poll_json ppf = function
  | Healthy s -> pp_site_json ppf s
  | Unreachable u ->
    Fmt.pf ppf "{\"site\": %d, \"reachable\": false}" u.u_site

let pp_site ppf s =
  Fmt.pf ppf
    "site%-2d in-doubt %d (max age %d us)  txns %d  locks %d held / %d \
     waiting in %d tables  wal %d B  dedup %d/%d  degraded %d  shards %d"
    s.hs_site s.hs_in_doubt s.hs_in_doubt_max_age_us s.hs_active_txns
    s.hs_locks_held s.hs_lock_waiters s.hs_lock_tables s.hs_wal_bytes
    s.hs_dedup_entries s.hs_dedup_capacity s.hs_degraded_copies
    s.hs_shards_owned;
  List.iter
    (fun c ->
      Fmt.pf ppf "@\n       hot %s: %d waiting, %d locks" c.hc_fid
        c.hc_waiters c.hc_locks)
    s.hs_hot_cells

let pp_poll ppf = function
  | Healthy s -> pp_site ppf s
  | Unreachable u -> Fmt.pf ppf "site%-2d UNREACHABLE" u.u_site
