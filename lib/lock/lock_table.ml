type lock = {
  owner : Owner.t;
  pid : Pid.t;
  mode : Mode.t;
  range : Byte_range.t;
  non_transaction : bool;
  retained : bool;
}

type waiter = {
  w_owner : Owner.t;
  w_pid : Pid.t;
  w_mode : Mode.t;
  w_range : Byte_range.t;
  w_non_transaction : bool;
  w_notify : bool -> unit;
  mutable w_cancelled : bool;
}

type t = {
  fid : File_id.t;
  mutable locks : lock list;
  mutable waiters : waiter list;  (* FIFO: oldest first *)
}

let create fid = { fid; locks = []; waiters = [] }
let restore fid locks = { fid; locks; waiters = [] }
let fid t = t.fid
let locks t = t.locks
let lock_count t = List.length t.locks

let check_mode = function
  | Mode.Shared | Mode.Exclusive -> ()
  | Mode.Unix_access ->
    invalid_arg "Lock_table: Unix access is implicit, not a requestable mode"

(* The conflict rule, for held locks and queued waits alike: a lock or
   wait of [owner] in [mode] over [range] blocks a request [w] by another
   owner on an overlapping range in an incompatible mode. *)
let blocks ~owner ~mode ~range w_owner w_mode w_range =
  Byte_range.overlaps range w_range
  && (not (Mode.compatible mode w_mode))
  && not (Owner.equal owner w_owner)

let conflicts_with_locks t ~owner ~mode ~range =
  List.filter_map
    (fun l ->
      if blocks ~owner:l.owner ~mode:l.mode ~range:l.range owner mode range then
        Some l.owner
      else None)
    t.locks

(* Split the owner's existing coverage out of [range], then add the new
   lock: one request extends, contracts, upgrades or downgrades in a single
   operation (§3.2). Exception: a transaction's re-lock never weakens
   protection it already holds (§3.3 rule 1 — all locks are kept until
   commit), so an exclusively-covered range stays exclusive when later
   re-requested shared; otherwise the transaction's uncommitted writes
   would become readable by others before commit. *)
let install t ~owner ~pid ~mode ~range ~non_transaction =
  let keep_stronger l =
    Owner.is_transaction owner
    && (not l.non_transaction)
    && Mode.stronger l.mode mode
  in
  let keep =
    List.concat_map
      (fun l ->
        if
          Owner.equal l.owner owner
          && Byte_range.overlaps l.range range
          && not (keep_stronger l)
        then
          List.map (fun r -> { l with range = r }) (Byte_range.diff l.range range)
        else [ l ])
      t.locks
  in
  t.locks <-
    { owner; pid; mode; range; non_transaction; retained = false } :: keep

let request t ~owner ~pid ~mode ~range ~non_transaction =
  check_mode mode;
  match conflicts_with_locks t ~owner ~mode ~range with
  | [] ->
    install t ~owner ~pid ~mode ~range ~non_transaction;
    `Granted
  | blockers -> `Conflict (List.sort_uniq Owner.compare blockers)

(* A pending earlier waiter blocks a later one on an overlapping range with
   an incompatible mode (different owner): no overtaking on contended
   records, which prevents writer starvation. *)
let wait_blocks e w =
  (not e.w_cancelled)
  && blocks ~owner:e.w_owner ~mode:e.w_mode ~range:e.w_range w.w_owner w.w_mode
       w.w_range

let blocked_by_earlier earlier w = List.exists (fun e -> wait_blocks e w) earlier

let pump t =
  let rec go earlier_pending = function
    | [] -> List.rev earlier_pending
    | w :: rest ->
      if w.w_cancelled then go earlier_pending rest
      else if
        conflicts_with_locks t ~owner:w.w_owner ~mode:w.w_mode ~range:w.w_range = []
        && not (blocked_by_earlier earlier_pending w)
      then begin
        install t ~owner:w.w_owner ~pid:w.w_pid ~mode:w.w_mode ~range:w.w_range
          ~non_transaction:w.w_non_transaction;
        w.w_notify true;
        go earlier_pending rest
      end
      else go (w :: earlier_pending) rest
  in
  t.waiters <- go [] t.waiters

let enqueue t ~owner ~pid ~mode ~range ~non_transaction ~notify =
  check_mode mode;
  let w =
    {
      w_owner = owner;
      w_pid = pid;
      w_mode = mode;
      w_range = range;
      w_non_transaction = non_transaction;
      w_notify = notify;
      w_cancelled = false;
    }
  in
  t.waiters <- t.waiters @ [ w ];
  (* The lock state may have changed between the failed [request] and this
     call; try immediately. *)
  pump t;
  w

let cancel t w =
  if not w.w_cancelled then begin
    w.w_cancelled <- true;
    w.w_notify false
  end;
  t.waiters <- List.filter (fun x -> x != w) t.waiters;
  pump t

let cancel_owner t owner =
  List.iter
    (fun w ->
      if (not w.w_cancelled) && Owner.equal w.w_owner owner then begin
        w.w_cancelled <- true;
        w.w_notify false
      end)
    t.waiters;
  t.waiters <- List.filter (fun w -> not w.w_cancelled) t.waiters;
  pump t

(* Unlock: transactions retain (2PL, §3.3 rule 1) unless the lock was a
   non-transaction lock (§3.4); non-transaction owners release. *)
let unlock t ~owner ~pid ~range =
  ignore pid;
  let keep_retained = Owner.is_transaction owner in
  t.locks <-
    List.concat_map
      (fun l ->
        if not (Owner.equal l.owner owner && Byte_range.overlaps l.range range)
        then [ l ]
        else if keep_retained && not l.non_transaction then begin
          let out = List.map (fun r -> { l with range = r }) (Byte_range.diff l.range range) in
          match Byte_range.inter l.range range with
          | Some r -> { l with range = r; retained = true } :: out
          | None -> out
        end
        else List.map (fun r -> { l with range = r }) (Byte_range.diff l.range range))
      t.locks;
  pump t

let release_owner t owner =
  t.locks <- List.filter (fun l -> not (Owner.equal l.owner owner)) t.locks;
  pump t

let release_process t pid =
  t.locks <-
    List.filter
      (fun l -> Owner.is_transaction l.owner || not (Pid.equal l.pid pid))
      t.locks;
  t.waiters <-
    List.filter
      (fun w ->
        if Pid.equal w.w_pid pid then begin
          w.w_cancelled <- true;
          w.w_notify false;
          false
        end
        else true)
      t.waiters;
  pump t

let may_read t ~reader ~range =
  List.for_all
    (fun l ->
      Owner.equal l.owner reader
      || (not (Byte_range.overlaps l.range range))
      || Mode.allows_read_by_other l.mode)
    t.locks

let may_write t ~writer ~range =
  List.for_all
    (fun l ->
      Owner.equal l.owner writer
      || (not (Byte_range.overlaps l.range range))
      || Mode.allows_write_by_other l.mode)
    t.locks

let owner_covers t ~owner ~range ~write =
  let sufficient (m : Mode.t) =
    match m with
    | Mode.Exclusive -> true
    | Mode.Shared -> not write
    | Mode.Unix_access -> false
  in
  let covered =
    List.fold_left
      (fun acc l ->
        if Owner.equal l.owner owner && sufficient l.mode then
          Range_set.add l.range acc
        else acc)
      Range_set.empty t.locks
  in
  Range_set.subsumes covered range

let holders t ~range =
  List.filter_map
    (fun l -> if Byte_range.overlaps l.range range then Some l.owner else None)
    t.locks
  |> List.sort_uniq Owner.compare

let retained_ranges t owner =
  List.filter_map
    (fun l -> if Owner.equal l.owner owner && l.retained then Some l.range else None)
    t.locks
  |> List.sort Byte_range.compare

let waiting t =
  List.fold_left (fun n w -> if w.w_cancelled then n else n + 1) 0 t.waiters

(* A table may ride a transfer envelope only when no waiter would be
   stranded: waiter callbacks are site-local closures, so [restore] on
   the receiving side necessarily drops them. *)
let transferable t = waiting t = 0

(* [f w.w_owner blocker] for each owner blocking the live waiter [w]:
   the holders of conflicting locks, then the live waiters queued ahead
   of it. Top-level and closure-free, so that walking a table allocates
   nothing. *)
let rec lock_blockers f w = function
  | [] -> ()
  | l :: rest ->
    if blocks ~owner:l.owner ~mode:l.mode ~range:l.range w.w_owner w.w_mode w.w_range
    then f w.w_owner l.owner;
    lock_blockers f w rest

let rec wait_blockers f w = function
  | [] -> ()
  | e :: rest ->
    if e != w then begin
      if wait_blocks e w then f w.w_owner e.w_owner;
      wait_blockers f w rest
    end

let iter_blockers t f w =
  lock_blockers f w t.locks;
  wait_blockers f w t.waiters

let rec iter_queue t f = function
  | [] -> ()
  | w :: rest ->
    if not w.w_cancelled then iter_blockers t f w;
    iter_queue t f rest

let iter_waits t f = iter_queue t f t.waiters

let waits_for t =
  List.filter_map
    (fun w ->
      if w.w_cancelled then None
      else begin
        let blockers = ref [] in
        iter_blockers t (fun _ b -> blockers := b :: !blockers) w;
        Some (w.w_owner, List.sort_uniq Owner.compare !blockers)
      end)
    t.waiters

let mark_retained t owner ~range =
  t.locks <-
    List.concat_map
      (fun l ->
        if
          Owner.equal l.owner owner
          && Byte_range.overlaps l.range range
          && not l.retained
        then begin
          let out =
            List.map (fun r -> { l with range = r }) (Byte_range.diff l.range range)
          in
          match Byte_range.inter l.range range with
          | Some r -> { l with range = r; retained = true } :: out
          | None -> out
        end
        else [ l ])
      t.locks

let pp_lock ppf l =
  Fmt.pf ppf "%a %a %a%s%s" Owner.pp l.owner Mode.pp l.mode Byte_range.pp l.range
    (if l.retained then " retained" else "")
    (if l.non_transaction then " non-txn" else "")

let pp ppf t =
  Fmt.pf ppf "@[<v>locks(%a):@,%a@,waiting: %d@]" File_id.pp t.fid
    Fmt.(list ~sep:cut pp_lock)
    t.locks (waiting t)
