type ctx = { trace : int; span : int }

type span = {
  id : int;
  parent : int option;
  trace_id : int;
  name : string;
  cat : string;
  site : int;
  start_us : int;
  mutable end_us : int;  (* -1 while open *)
  mutable args : (string * string) list;
}

type cell = {
  mutable waits : int;
  mutable total_wait_us : int;
  mutable max_wait_us : int;
  mutable max_queue : int;
  mutable blockers : (string * int) list;
}

type t = {
  engine : Engine.t;
  capacity : int;
  ring : span option array;
  mutable next : int;
  mutable count : int;
  mutable dropped : int;
  mutable next_id : int;
  stacks : (int, span list ref) Hashtbl.t;  (* fiber id -> open spans, innermost first *)
  phase_hists : (string, Stats.Hist.t) Hashtbl.t;
  cells : (string * int, cell) Hashtbl.t;
  mutable migrations : migration list;  (* newest first *)
}

and migration = {
  mg_fid : string;
  mg_from : int;
  mg_to : int;
  mg_epoch : int;
  mg_at : int;
}

let create ?(capacity = 65536) engine =
  if capacity <= 0 then invalid_arg "Otrace.create: non-positive capacity";
  {
    engine;
    capacity;
    ring = Array.make capacity None;
    next = 0;
    count = 0;
    dropped = 0;
    next_id = 0;
    stacks = Hashtbl.create 64;
    phase_hists = Hashtbl.create 32;
    cells = Hashtbl.create 32;
    migrations = [];
  }

(* Ambient state is keyed by engine fiber id; work running outside any
   fiber (scheduled closures) shares the pseudo-key -1. *)
let fiber_key t =
  match Engine.current_fiber t.engine with
  | Some f -> Engine.Fiber.id f
  | None -> -1

let stack t key =
  match Hashtbl.find_opt t.stacks key with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.stacks key r;
    r

let span_ctx sp = { trace = sp.trace_id; span = sp.id }

let current_ctx t =
  match Hashtbl.find_opt t.stacks (fiber_key t) with
  | Some { contents = top :: _ } -> Some (span_ctx top)
  | _ -> None

let start ?parent ?(args = []) t ~site ~cat name =
  let st = stack t (fiber_key t) in
  let parent, trace_of_parent =
    match parent with
    | Some c -> (Some c.span, Some c.trace)
    | None -> (
      match !st with
      | top :: _ -> (Some top.id, Some top.trace_id)
      | [] -> (None, None))
  in
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let trace_id = match trace_of_parent with Some tr -> tr | None -> id in
  let sp =
    {
      id;
      parent;
      trace_id;
      name;
      cat;
      site;
      start_us = Engine.now t.engine;
      end_us = -1;
      args;
    }
  in
  st := sp :: !st;
  sp

let record t sp =
  if t.count = t.capacity then t.dropped <- t.dropped + 1;
  t.ring.(t.next) <- Some sp;
  t.next <- (t.next + 1) mod t.capacity;
  t.count <- min (t.count + 1) t.capacity

let phase_hist t name =
  match Hashtbl.find_opt t.phase_hists name with
  | Some h -> h
  | None ->
    let h = Stats.Hist.create () in
    Hashtbl.add t.phase_hists name h;
    h

(* Pop [sp] from whichever ambient stack holds it. The common case is the
   top of the current fiber's stack; out-of-order finishes (a transaction
   root closed while a syscall span is still open above it) and
   cross-fiber finishes just filter it out wherever it is. *)
let unstack t sp =
  let filter r = r := List.filter (fun s -> s.id <> sp.id) !r in
  let key = fiber_key t in
  (match Hashtbl.find_opt t.stacks key with
  | Some r when List.exists (fun s -> s.id = sp.id) !r ->
    filter r;
    if !r = [] then Hashtbl.remove t.stacks key
  | _ ->
    let owner =
      Hashtbl.fold
        (fun k r acc ->
          if acc = None && List.exists (fun s -> s.id = sp.id) !r then Some (k, r)
          else acc)
        t.stacks None
    in
    (match owner with
    | Some (k, r) ->
      filter r;
      if !r = [] then Hashtbl.remove t.stacks k
    | None -> ()))

let finish ?(args = []) t sp =
  if sp.end_us < 0 then begin
    sp.end_us <- Engine.now t.engine;
    if args <> [] then sp.args <- sp.args @ args;
    unstack t sp;
    record t sp;
    Stats.Hist.add (phase_hist t sp.name) (sp.end_us - sp.start_us)
  end

let with_span ?parent ?args t ~site ~cat name f =
  let sp = start ?parent ?args t ~site ~cat name in
  Fun.protect f ~finally:(fun () -> finish t sp)

(* {1 Lock contention} *)

type wait_profile = {
  wp_fid : string;
  wp_range_lo : int;
  wp_range_len : int;
  wp_waits : int;
  wp_total_wait_us : int;
  wp_max_wait_us : int;
  wp_max_queue : int;
  wp_blockers : (string * int) list;
}

(* Per-cell blocker maps are bounded so long sweeps can't grow them
   without limit: at most [max_blockers] distinct owners per cell. When
   full, a new owner evicts the current minimum-count entry (ties broken
   toward the lexicographically last name, deterministically) — an
   approximate top-K, exact whenever a cell sees <= K distinct blockers. *)
let max_blockers = 8

(* Byte-range bucket width of the lock-contention profile: one 1 KiB
   page. *)
let cell_bytes = 1024

let note_wait t ~fid ~lo ~wait_us ~queue ~blockers =
  let key = (fid, lo / cell_bytes) in
  let c =
    match Hashtbl.find_opt t.cells key with
    | Some c -> c
    | None ->
      let c =
        { waits = 0; total_wait_us = 0; max_wait_us = 0; max_queue = 0; blockers = [] }
      in
      Hashtbl.add t.cells key c;
      c
  in
  c.waits <- c.waits + 1;
  c.total_wait_us <- c.total_wait_us + wait_us;
  if wait_us > c.max_wait_us then c.max_wait_us <- wait_us;
  if queue > c.max_queue then c.max_queue <- queue;
  List.iter
    (fun b ->
      match List.assoc_opt b c.blockers with
      | Some n -> c.blockers <- (b, n + 1) :: List.remove_assoc b c.blockers
      | None ->
        let rest =
          if List.length c.blockers < max_blockers then c.blockers
          else
            let victim =
              List.fold_left
                (fun acc (o, n) ->
                  match acc with
                  | None -> Some (o, n)
                  | Some (vo, vn) ->
                    if n < vn || (n = vn && String.compare o vo > 0) then
                      Some (o, n)
                    else acc)
                None c.blockers
            in
            match victim with
            | Some (vo, _) -> List.remove_assoc vo c.blockers
            | None -> c.blockers
        in
        c.blockers <- (b, 1) :: rest)
    blockers

(* {1 Ownership migrations (locus_shard)} *)

let note_migration t ~fid ~from_site ~to_site ~epoch =
  t.migrations <-
    {
      mg_fid = fid;
      mg_from = from_site;
      mg_to = to_site;
      mg_epoch = epoch;
      mg_at = Engine.now t.engine;
    }
    :: t.migrations

let migrations t = List.rev t.migrations

let contention t =
  Hashtbl.fold
    (fun (fid, bucket) c acc ->
      {
        wp_fid = fid;
        wp_range_lo = bucket * cell_bytes;
        wp_range_len = cell_bytes;
        wp_waits = c.waits;
        wp_total_wait_us = c.total_wait_us;
        wp_max_wait_us = c.max_wait_us;
        wp_max_queue = c.max_queue;
        wp_blockers =
          List.sort
            (fun (oa, a) (ob, b) ->
              match Int.compare b a with
              | 0 -> String.compare oa ob
              | c -> c)
            c.blockers;
      }
      :: acc)
    t.cells []
  |> List.sort (fun a b ->
         match Int.compare b.wp_total_wait_us a.wp_total_wait_us with
         | 0 -> compare (a.wp_fid, a.wp_range_lo) (b.wp_fid, b.wp_range_lo)
         | c -> c)

(* {1 Reading back} *)

let raw_spans t =
  let out = ref [] in
  for i = t.count - 1 downto 0 do
    let idx = (t.next - t.count + i + (t.capacity * 2)) mod t.capacity in
    match t.ring.(idx) with Some s -> out := s :: !out | None -> ()
  done;
  !out

let spans t =
  List.map
    (fun s -> (s.id, s.parent, s.name, s.cat, s.site, s.start_us, s.end_us))
    (raw_spans t)

let span_count t = t.count
let dropped t = t.dropped
let capacity t = t.capacity

let phases t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.phase_hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let phase t name = Hashtbl.find_opt t.phase_hists name

(* {1 Exporters} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let export_chrome ?(extra = []) t ppf =
  let spans =
    List.sort
      (fun a b ->
        match Int.compare a.start_us b.start_us with
        | 0 -> Int.compare a.id b.id
        | c -> c)
      (raw_spans t)
  in
  let known = Hashtbl.create (List.length spans * 2) in
  List.iter (fun s -> Hashtbl.replace known s.id ()) spans;
  let orphaned = ref 0 in
  Fmt.pf ppf "{@\n  \"traceEvents\": [";
  List.iteri
    (fun i s ->
      (* A parent that fell off the bounded ring must not leave a dangling
         id in the file: promote the child to a root and count it. *)
      let parent =
        match s.parent with
        | Some p when Hashtbl.mem known p -> Some p
        | Some _ ->
          incr orphaned;
          None
        | None -> None
      in
      Fmt.pf ppf "%s@\n    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
        (if i = 0 then "" else ",")
        (json_escape s.name) (json_escape s.cat);
      Fmt.pf ppf "\"ts\": %d, \"dur\": %d, \"pid\": %d, \"tid\": %d, \"args\": {"
        s.start_us
        (max 0 (s.end_us - s.start_us))
        s.site s.trace_id;
      Fmt.pf ppf "\"id\": %d" s.id;
      (match parent with Some p -> Fmt.pf ppf ", \"parent\": %d" p | None -> ());
      Fmt.pf ppf ", \"trace\": %d" s.trace_id;
      List.iter
        (fun (k, v) ->
          Fmt.pf ppf ", \"%s\": \"%s\"" (json_escape k) (json_escape v))
        s.args;
      Fmt.pf ppf "}}")
    spans;
  Fmt.pf ppf "@\n  ],@\n  \"displayTimeUnit\": \"ms\",@\n  \"otherData\": {";
  Fmt.pf ppf "\"spans\": %d, \"dropped\": %d, \"orphaned\": %d" (List.length spans)
    t.dropped !orphaned;
  List.iter
    (fun (k, v) -> Fmt.pf ppf ", \"%s\": \"%s\"" (json_escape k) (json_escape v))
    extra;
  Fmt.pf ppf "}@\n}@\n"

let abort_reasons =
  [ "deadlock"; "orphan"; "crash"; "degraded_vote"; "coordinator_lost"; "user" ]

let export_metrics t stats ppf =
  Fmt.pf ppf "{@\n  \"phases\": [";
  List.iteri
    (fun i (name, h) ->
      Fmt.pf ppf
        "%s@\n    {\"name\": \"%s\", \"count\": %d, \"total_us\": %d, \
         \"mean_us\": %.1f, \"p50_us\": %d, \"p95_us\": %d, \"p99_us\": %d, \
         \"p999_us\": %d, \"max_us\": %d}"
        (if i = 0 then "" else ",")
        (json_escape name) (Stats.Hist.count h) (Stats.Hist.total h)
        (Stats.Hist.mean h)
        (Stats.Hist.quantile h 50)
        (Stats.Hist.quantile h 95)
        (Stats.Hist.quantile h 99)
        (Stats.Hist.quantile_permille h 999)
        (Stats.Hist.max_value h))
    (phases t);
  Fmt.pf ppf "@\n  ],@\n  \"lock_contention\": [";
  List.iteri
    (fun i w ->
      Fmt.pf ppf
        "%s@\n    {\"fid\": \"%s\", \"range_lo\": %d, \"range_len\": %d, \
         \"waits\": %d, \"total_wait_us\": %d, \"max_wait_us\": %d, \
         \"max_queue\": %d, \"top_blockers\": ["
        (if i = 0 then "" else ",")
        (json_escape w.wp_fid) w.wp_range_lo w.wp_range_len w.wp_waits
        w.wp_total_wait_us w.wp_max_wait_us w.wp_max_queue;
      List.iteri
        (fun j (owner, n) ->
          if j < 3 then
            Fmt.pf ppf "%s{\"owner\": \"%s\", \"waits\": %d}"
              (if j = 0 then "" else ", ")
              (json_escape owner) n)
        w.wp_blockers;
      Fmt.pf ppf "]}")
    (contention t);
  Fmt.pf ppf "@\n  ],@\n  \"aborts\": {";
  List.iteri
    (fun i r ->
      Fmt.pf ppf "%s\"%s\": %d"
        (if i = 0 then "" else ", ")
        r
        (Stats.get stats ("txn.abort." ^ r)))
    abort_reasons;
  Fmt.pf ppf "},@\n  \"migrations\": [";
  List.iteri
    (fun i m ->
      Fmt.pf ppf
        "%s@\n    {\"fid\": \"%s\", \"from\": %d, \"to\": %d, \"epoch\": %d, \
         \"at_us\": %d}"
        (if i = 0 then "" else ",")
        (json_escape m.mg_fid) m.mg_from m.mg_to m.mg_epoch m.mg_at)
    (migrations t);
  Fmt.pf ppf "@\n  ],@\n  \"trace\": {";
  Fmt.pf ppf "\"spans\": %d, \"dropped\": %d, \"capacity\": %d" t.count t.dropped
    t.capacity;
  Fmt.pf ppf "},@\n  \"counters\": {";
  List.iteri
    (fun i (k, v) ->
      Fmt.pf ppf "%s@\n    \"%s\": %d" (if i = 0 then "" else ",") (json_escape k) v)
    (Stats.counters stats);
  Fmt.pf ppf "@\n  }@\n}@\n"
