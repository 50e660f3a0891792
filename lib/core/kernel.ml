module Wfg = Locus_deadlock.Wfg
module Process = Locus_proc.Process
module Proc_table = Locus_proc.Proc_table
module Otrace = Locus_otrace.Otrace
module Pcommit = Locus_pcommit.Pcommit
module Pc_acceptor = Locus_pcommit.Acceptor
module Shard_dir = Locus_shard.Directory
module Shard_policy = Locus_shard.Policy
module Hreport = Locus_health.Report
module Hsampler = Locus_health.Sampler
module Hrules = Locus_health.Rules

type outcome = Committed | Aborted

let pp_outcome ppf = function
  | Committed -> Fmt.string ppf "committed"
  | Aborted -> Fmt.string ppf "aborted"

type ready = Members_done | Abort_requested

module Config = struct
  (* Atomic-commitment protocol selector. [Two_phase] is the paper's §4.2
     protocol and the default everywhere. [Paxos { f }] layers Gray &
     Lamport's Paxos Commit on top: participant votes are replicated
     across 2f+1 acceptor sites so the outcome survives f failures and a
     crashed coordinator no longer blocks its participants. *)
  type commit_protocol = Two_phase | Paxos of { f : int }

  (* One bounded-retry-with-backoff policy: [attempts] tries, the first
     wait is [backoff_us], growth is exponential (or jittered when the
     chaos layer is armed) capped at [cap_us]. *)
  type retry = { attempts : int; backoff_us : int; cap_us : int }

  (* The kernel's six retry call sites, each with its own policy — one
     source of truth instead of per-callsite magic numbers. [rpc] is the
     generic client-request profile used when the chaos layer retries
     ordinary kernel RPCs; the rest are the named protocol loops. *)
  type retries = {
    rpc : retry;
    phase2 : retry;  (* commit/abort phase-2 notifications (§4.2) *)
    replay : retry;  (* recovery replaying phase 2 of decided txns (§4.4) *)
    outcome : retry;  (* participants chasing an in-doubt outcome (§4.4) *)
    replica : retry;  (* replica delta propagation to secondaries (§5.2) *)
    shard : retry;  (* shard directory claims during migration races *)
  }

  type t = {
    n_sites : int;
    volumes : (int * Site.t list) list;
    page_size : int;
    cache_pages : int;
    lock_cache : bool;
    prefetch : bool;
    lock_delegation : bool;
    delegation_threshold : int;
    prepare_log_per_file : bool;
    two_write_log : bool;
    replica_sync : bool;
    async_phase2 : bool;
    deadlock_patience_us : int;
    deadlock_policy : Locus_deadlock.Detector.policy;
    rpc_timeout_us : int;
    group_commit_window_us : int;
    rpc_batch_window_us : int;
    commit_protocol : commit_protocol;
    shards : int;  (* 0 = static lock placement; > 0 enables locus_shard *)
    shard_policy : Locus_shard.Policy.t;
    retries : retries;
    net_faults : Transport.faults option;  (* locus_chaos; None = reliable *)
    health_window_us : int;  (* locus_health sampling window; 0 = off *)
    health_keep : int;  (* windows retained per series *)
    health_thresholds : Locus_health.Rules.thresholds;
  }

  (* Exactly the historical per-callsite constants, so default timing is
     bit-for-bit unchanged: every cap is the old hardcoded 16x initial
     backoff. *)
  let default_retries =
    let r attempts backoff_us = { attempts; backoff_us; cap_us = backoff_us * 16 } in
    {
      rpc =
        r Transport.default_rpc_attempts Transport.default_rpc_backoff_us;
      phase2 = r 8 2_000_000;
      replay = r 5 2_000_000;
      outcome = r 6 1_000_000;
      replica = r 3 200_000;
      shard = r 3 2_000;
    }

  let default ~n_sites =
    {
      n_sites;
      volumes = List.init n_sites (fun i -> (i, [ i ]));
      page_size = 1024;
      cache_pages = 128;
      lock_cache = true;
      prefetch = false;
      lock_delegation = false;
      delegation_threshold = 3;
      prepare_log_per_file = false;
      two_write_log = false;
      replica_sync = true;
      async_phase2 = true;
      deadlock_patience_us = 3_000_000;
      deadlock_policy = Locus_deadlock.Detector.Youngest_transaction;
      rpc_timeout_us = Transport.default_rpc_timeout_us;
      group_commit_window_us = 0;
      rpc_batch_window_us = 0;
      commit_protocol = Two_phase;
      shards = 0;
      shard_policy = Locus_shard.Policy.default;
      retries = default_retries;
      net_faults = None;
      health_window_us = 0;
      health_keep = 64;
      health_thresholds = Locus_health.Rules.default;
    }

  let with_replication ~n_sites ~factor =
    { (default ~n_sites) with volumes = Placement.volumes ~n_sites ~factor }

  let with_batching ~window_us cfg =
    { cfg with group_commit_window_us = window_us; rpc_batch_window_us = window_us }

  let with_paxos ~f cfg =
    if f < 0 then invalid_arg "Config.with_paxos: f must be >= 0";
    if cfg.n_sites < (2 * f) + 1 then
      invalid_arg "Config.with_paxos: need n_sites >= 2f+1 acceptor sites";
    { cfg with commit_protocol = Paxos { f } }

  (* Arm the lossy-network chaos layer (locus_chaos): per-message drop /
     duplication / delivery jitter / reordering on every wire leg, driven
     by a PRNG split off the engine seed. Also switches kernel client
     RPCs to rid-tagged retried sends so the servers' exactly-once reply
     caches absorb the retries and duplicates. *)
  let with_net_faults ?(drop = 0.) ?(dup = 0.) ?(reorder = 0) ?(jitter_us = 0)
      cfg =
    if drop < 0. || drop >= 1. then
      invalid_arg "Config.with_net_faults: drop must be in [0, 1)";
    if dup < 0. || dup >= 1. then
      invalid_arg "Config.with_net_faults: dup must be in [0, 1)";
    if reorder < 0 || jitter_us < 0 then
      invalid_arg "Config.with_net_faults: reorder/jitter must be >= 0";
    { cfg with net_faults = Some { Transport.drop; dup; jitter_us; reorder } }

  (* Arm the live health plane (locus_health): a windowed sampler ticks
     every [window_us] of virtual time, feeding bounded per-series rings
     and the watchdog rules. Off by default — like every observability
     layer before it, the default configuration stays bit-for-bit
     identical. Sampling runs in engine-scheduled closures (outside any
     fiber), so it consumes no virtual time and draws no randomness. *)
  let with_health ?(window_us = 100_000) ?(keep = 64) ?thresholds cfg =
    if window_us <= 0 then
      invalid_arg "Config.with_health: window_us must be > 0";
    if keep <= 0 then invalid_arg "Config.with_health: keep must be > 0";
    {
      cfg with
      health_window_us = window_us;
      health_keep = keep;
      health_thresholds =
        (match thresholds with Some t -> t | None -> cfg.health_thresholds);
    }

  (* Dynamic lock placement (locus_shard). Mutually exclusive with §5.2
     delegation: both move lock authority, by different rules, and a
     request could otherwise ping-pong between the two redirect schemes. *)
  let with_shards ~shards ?policy cfg =
    if shards <= 0 then invalid_arg "Config.with_shards: shards must be > 0";
    if cfg.lock_delegation then
      invalid_arg "Config.with_shards: incompatible with lock_delegation";
    {
      cfg with
      shards;
      shard_policy =
        (match policy with Some p -> p | None -> cfg.shard_policy);
    }
end

(* Failure-injection hooks: invoked synchronously at the protocol points
   recovery cares about, so tests can crash sites at exactly the right
   instant. *)
type hooks = {
  mutable on_coord_log_written : Txid.t -> unit;
  mutable on_participant_prepared : Site.t -> Txid.t -> bool -> unit;
  mutable on_decided : Txid.t -> Log_record.status -> unit;
}

let no_hooks () =
  {
    on_coord_log_written = (fun _ -> ());
    on_participant_prepared = (fun _ _ _ -> ());
    on_decided = (fun _ _ -> ());
  }

type t = {
  site : Site.t;
  engine : Engine.t;
  mutable alive : bool;
  mutable incarnation : int;
  mutable txseq : int;
  mutable coord_ready : bool;  (* coordinator-log recovery pass done *)
  mutable par_ready : bool;  (* participant prepared-state rebuild done *)
  mutable recovered : bool;  (* full recovery (incl. in-doubt resolution) done *)
  repl : Status.t;  (* freshness of hosted replicated volumes *)
  known_primary : (int, Site.t) Hashtbl.t;  (* per-vid, to spot takeovers *)
  cache : Cache.t;
  store : Filestore.t;
  locks : (File_id.t, Lock_table.t) Hashtbl.t;
  procs : Proc_table.t;
  txns : Txn_state.t;
  participant : Participant.t;
  mutable coord : Coord_log.t;
  pc_acceptor : Pc_acceptor.t;  (* Paxos Commit acceptor share of this site *)
  mutable acc_ready : bool;  (* acceptor vote replay done *)
  resolving : (Txid.t, unit) Hashtbl.t;  (* single-flight acceptor resolvers *)
  doubted : (Txid.t, int) Hashtbl.t;
  (* counted in the txn.in_doubt gauge; the value is the virtual time
     doubt was entered, so the health plane can age the oldest one *)
  fibers : (Pid.t, Engine.Fiber.handle) Hashtbl.t;
  end_waits : (Txid.t, ready Engine.Ivar.t) Hashtbl.t;
  (* §5.2 lock-control migration state. *)
  delegations : (File_id.t, Site.t) Hashtbl.t;  (* we are home; authority is there *)
  hosted : (File_id.t, Site.t) Hashtbl.t;  (* we hold authority; home is there *)
  lock_origins : (File_id.t, Site.t * int) Hashtbl.t;  (* consecutive remote requesters *)
  (* locus_shard dynamic lock placement state (all volatile). *)
  shard_owned : (File_id.t, unit) Hashtbl.t;  (* lock-manager roles held here *)
  shard_epochs : (File_id.t, int) Hashtbl.t;  (* highest epoch seen per fid (fence) *)
  shard_hints : (File_id.t, Site.t) Hashtbl.t;  (* stale-tolerant owner hints *)
  shard_origins : (File_id.t, Site.t * int) Hashtbl.t;  (* remote-acquisition streaks *)
  shard_migrating : (File_id.t, unit) Hashtbl.t;  (* transfer in progress *)
  (* Exactly-once RPC state (locus_chaos) — all volatile, per incarnation.
     Server side: the bounded per-client reply cache that answers retried
     or duplicated requests whose first copy already executed, plus the
     per-client ack watermark that both evicts finished entries and fences
     late wire copies of finished requests as stale duplicates. Client
     side: the rid sequence allocator and the outstanding-seq set the ack
     watermark is computed from. *)
  reply_cache : (int * int * int, reply_slot) Hashtbl.t;  (* (site, inc, seq) *)
  reply_cache_q : (int * int * int) Queue.t;  (* FIFO capacity bound *)
  rc_acked : (int * int, int) Hashtbl.t;  (* (site, inc) -> acked seq *)
  mutable rid_seq : int;
  rid_outstanding : (int, unit) Hashtbl.t;
  cl : cluster;
}

and reply_slot = Cached of Msg.reply | Running of Msg.reply Engine.Ivar.t

and cluster = {
  cfg : Config.t;
  c_engine : Engine.t;
  net : (Msg.env, Msg.reply) Transport.t;
  mutable ks : t array;
  namespace : (string, File_id.t) Hashtbl.t;
  paths : (File_id.t, string) Hashtbl.t;
  vol_hosts : (int, Site.t list) Hashtbl.t;
  primaries : (int, Site.t) Hashtbl.t;
  locations : (Pid.t, Site.t) Hashtbl.t;
  exit_ivars : (Pid.t, unit Engine.Ivar.t) Hashtbl.t;
  lock_authority : (File_id.t, Site.t) Hashtbl.t;  (* client hints *)
  mutable root_dir : File_id.t option;  (* lazily created "/" directory file *)
  txn_tops : (Txid.t, Pid.t) Hashtbl.t;
  txn_members : (Txid.t, (Pid.t * Site.t) list ref) Hashtbl.t;
  hooks : hooks;
  mutable observer : Obs.sink option;  (* history recorder (Locus_check) *)
  mutable otracer : Otrace.t option;  (* causal span collector (Locus_otrace) *)
  shard_dir : Shard_dir.t option;  (* authoritative role directory (locus_shard) *)
  mutable health : health_plane option;  (* windowed sampler + watchdog (locus_health) *)
}

(* Live health plane state (armed by [Config.with_health]): the cluster
   sampler, one edge-triggered rules evaluator per site plus one for
   cluster-scope rules, and the alarm history (newest first). *)
and health_plane = {
  hp_sampler : Hsampler.t;
  hp_site_rules : Hrules.t array;
  hp_cluster_rules : Hrules.t;
  mutable hp_alarms : Hrules.alarm list;
}

(* Marshalled migration payload (§4.1): the process record plus, for a
   top-level process, its transaction record, which travels with it. *)
type migration = { m_proc : Process.t; m_txn : Txn_state.txn option }

let engine cl = cl.c_engine
let config cl = cl.cfg
let hooks cl = cl.hooks
let transport cl = cl.net
let kernel cl s = cl.ks.(s)
let kernels cl = Array.to_list cl.ks
let site k = k.site
let cluster_of k = k.cl
let procs k = k.procs
let txns k = k.txns
let filestore k = k.store
let participant k = k.participant
let coord_log k = k.coord
let costs k = Engine.costs k.engine
let stats k = Engine.stats k.engine
let sharded cl = cl.shard_dir <> None

let tr k cat fmt =
  Trace.emitf (Engine.trace k.engine) ~at:(Engine.now k.engine) ~cat ~site:k.site fmt

(* {1 History observation (Locus_check)} *)

let set_observer cl sink = cl.observer <- sink

let observe cl ~site ev =
  match cl.observer with
  | None -> ()
  | Some sink -> sink { Obs.at = Engine.now cl.c_engine; site; ev }

let obs k ev = observe k.cl ~site:k.site ev

(* {1 Causal span tracing (Locus_otrace)}

   Same zero-overhead discipline as [observe]: a single option test per
   emission point, and the slow [Some] branch only exists while a
   collector is installed. *)

let set_otracer cl tr = cl.otracer <- tr
let otracer cl = cl.otracer

(* The span context to attach to an outgoing message: the innermost open
   span of the calling fiber, so the server-side span grafts under it. *)
let wire_ctx cl =
  match cl.otracer with None -> None | Some tr -> Otrace.current_ctx tr

let envelope cl ?rid msg = { Msg.ctx = wire_ctx cl; rid; payload = msg }

let with_span k ?parent ?args ~cat name f =
  match k.cl.otracer with
  | None -> f ()
  | Some tr -> Otrace.with_span ?parent ?args tr ~site:k.site ~cat name f

(* Run the thunks concurrently in site-attributed fibers and await them
   all. Used on the commit hot path when RPC batching is on, so that
   independent messages for the same destination (e.g. one transaction's
   replica deltas) are in flight together and can join one batch window —
   issued sequentially they could never coalesce. *)
let par_iter k ~name fs =
  let ivs =
    List.map
      (fun f ->
        let iv = Engine.Ivar.create () in
        ignore
          (Engine.spawn ~name ~site:k.site k.engine (fun () ->
               Fun.protect f ~finally:(fun () ->
                   ignore (Engine.try_fill k.engine iv ()))));
        iv)
      fs
  in
  List.iter Engine.await ivs

let alloc_txid k =
  k.txseq <- k.txseq + 1;
  Txid.make ~site:k.site ~incarnation:k.incarnation ~seq:k.txseq

let lock_table k fid = Hashtbl.find_opt k.locks fid

let ensure_table k fid =
  match Hashtbl.find_opt k.locks fid with
  | Some t -> t
  | None ->
    let t = Lock_table.create fid in
    Hashtbl.replace k.locks fid t;
    t

let lock_tables cl =
  Array.to_list cl.ks
  |> List.concat_map (fun k ->
         if k.alive then Hashtbl.fold (fun _ t acc -> t :: acc) k.locks [] else [])

let register_fiber k pid h = Hashtbl.replace k.fibers pid h
let fiber_of k pid = Hashtbl.find_opt k.fibers pid
let forget_fiber k pid = Hashtbl.remove k.fibers pid

let note_location cl pid s = Hashtbl.replace cl.locations pid s
let location_hint cl pid = Hashtbl.find_opt cl.locations pid

let exit_ivar cl pid =
  match Hashtbl.find_opt cl.exit_ivars pid with
  | Some iv -> iv
  | None ->
    let iv = Engine.Ivar.create () in
    Hashtbl.replace cl.exit_ivars pid iv;
    iv

(* {1 Exactly-once request ids (locus_chaos)}

   Armed together with [Config.net_faults]: with the network lossy, every
   remote client request is tagged with a fresh [(site, incarnation, seq)]
   id and sent through the transport's retry loop, and the destination's
   reply cache guarantees the handler body runs at most once per id no
   matter how many wire copies arrive. The ack watermark piggybacked on
   every rid ([r_ack] = lowest seq this client still has outstanding,
   minus one) is what lets servers evict finished entries. *)

let rid_alloc k =
  k.rid_seq <- k.rid_seq + 1;
  let seq = k.rid_seq in
  let ack = Hashtbl.fold (fun s () acc -> min s acc) k.rid_outstanding seq - 1 in
  Hashtbl.replace k.rid_outstanding seq ();
  { Msg.r_site = k.site; r_inc = k.incarnation; r_seq = seq; r_ack = ack }

let rid_done k (rid : Msg.rid) = Hashtbl.remove k.rid_outstanding rid.r_seq

let rpc_error e = Msg.R_err (Fmt.str "%a" Transport.pp_error e)

let rpc cl ~src ~dst msg =
  match cl.cfg.Config.net_faults with
  | Some _ when src <> dst ->
    let k = cl.ks.(src) in
    let rid = rid_alloc k in
    let env = envelope cl ~rid msg in
    let p = cl.cfg.Config.retries.Config.rpc in
    let r =
      match
        Transport.rpc_retry ~attempts:p.Config.attempts
          ~backoff_us:p.Config.backoff_us ~cap_us:p.Config.cap_us cl.net ~src
          ~dst env
      with
      | Ok r -> r
      | Error e -> rpc_error e
    in
    rid_done k rid;
    r
  | Some _ | None -> (
    match Transport.rpc cl.net ~src ~dst (envelope cl msg) with
    | Ok r -> r
    | Error e -> rpc_error e)

(* Commit hot path variant: joins the RPC batch window when
   [Config.rpc_batch_window_us] is on, identical to {!rpc} otherwise.
   Only messages that are independent of each other may travel through
   here (prepares, phase-2 notifications, replica deltas): a batch is
   processed sequentially at the destination. *)
let rpc_hot cl ~src ~dst msg =
  match cl.cfg.Config.net_faults with
  | Some _ when src <> dst ->
    let k = cl.ks.(src) in
    let rid = rid_alloc k in
    let env = envelope cl ~rid msg in
    let p = cl.cfg.Config.retries.Config.rpc in
    let r =
      match
        Transport.rpc_retry_batched ~attempts:p.Config.attempts
          ~backoff_us:p.Config.backoff_us ~cap_us:p.Config.cap_us cl.net ~src
          ~dst env
      with
      | Ok r -> r
      | Error e -> rpc_error e
    in
    rid_done k rid;
    r
  | Some _ | None -> (
    match Transport.rpc_batched cl.net ~src ~dst (envelope cl msg) with
    | Ok r -> r
    | Error e -> rpc_error e)

(* Send a caller-built envelope as-is. Callers that must reuse ONE rid
   across an application-level retry loop (e.g. [send_merge], whose
   request is not idempotent) build the envelope once and resend it
   through here, so every wire copy carries the same identity. *)
let rpc_env cl ~src ~dst env =
  match Transport.rpc cl.net ~src ~dst env with
  | Ok r -> r
  | Error e -> rpc_error e

(* Transport retry calls under a [Config.retry] profile — the single
   source of truth replacing the per-callsite magic numbers the protocol
   loops used to carry. *)
let rpc_retry_p ?retry_if cl (p : Config.retry) ~src ~dst env =
  Transport.rpc_retry ?retry_if ~attempts:p.Config.attempts
    ~backoff_us:p.Config.backoff_us ~cap_us:p.Config.cap_us cl.net ~src ~dst
    env

let rpc_retry_batched_p ?retry_if cl (p : Config.retry) ~src ~dst env =
  Transport.rpc_retry_batched ?retry_if ~attempts:p.Config.attempts
    ~backoff_us:p.Config.backoff_us ~cap_us:p.Config.cap_us cl.net ~src ~dst
    env

(* {1 Paxos Commit plumbing} *)

let paxos_f cl =
  match cl.cfg.Config.commit_protocol with
  | Config.Two_phase -> None
  | Config.Paxos { f } -> Some f

let acceptor_sites cl ~coordinator f =
  Pcommit.acceptors ~n_sites:cl.cfg.Config.n_sites ~f ~coordinator

(* The [txn.in_doubt] gauge: number of prepared transactions this kernel
   currently cannot decide locally. Tracked per-txid so overlapping
   discovery paths (recovery scan, topology sweep) never double-count. *)
let enter_doubt k txid =
  if not (Hashtbl.mem k.doubted txid) then begin
    Hashtbl.replace k.doubted txid (Engine.now k.engine);
    Stats.add (stats k) "txn.in_doubt" 1
  end

let leave_doubt k txid =
  if Hashtbl.mem k.doubted txid then begin
    Hashtbl.remove k.doubted txid;
    Stats.add (stats k) "txn.in_doubt" (-1)
  end

(* {1 Namespace} *)

let replica_sites cl fid =
  match Hashtbl.find_opt cl.vol_hosts fid.File_id.vid with
  | Some hosts -> hosts
  | None -> []

let storage_site cl fid =
  let vid = fid.File_id.vid in
  let hosts =
    match Hashtbl.find_opt cl.vol_hosts vid with
    | Some hosts -> hosts
    | None -> invalid_arg "Kernel.storage_site: unknown volume"
  in
  match Hashtbl.find_opt cl.primaries vid with
  | Some s when Transport.site_up cl.net s -> s
  | Some _ | None ->
    (* Elect (or re-elect after a crash) the primary update site (§5.2). *)
    let s =
      match List.find_opt (Transport.site_up cl.net) hosts with
      | Some s -> s
      | None -> List.hd hosts
    in
    Hashtbl.replace cl.primaries vid s;
    s

let lookup cl path = Hashtbl.find_opt cl.namespace path

let bind_path cl path fid =
  Hashtbl.replace cl.namespace path fid;
  Hashtbl.replace cl.paths fid path

(* The root directory file, created on first use. Directories are ordinary
   files full of fixed-width entries, resolved through normal kernel reads
   (the name-mapping cost of §3.2 is real I/O here). *)
let root_vid cl =
  match List.find_opt (fun (_, hosts) -> List.mem 0 hosts) cl.cfg.Config.volumes with
  | Some (vid, _) -> vid
  | None -> invalid_arg "Kernel.root_vid: site 0 hosts no volume"

let root_dir cl ~src =
  match cl.root_dir with
  | Some fid -> fid
  | None -> (
    let vid = root_vid cl in
    let host = storage_site cl (File_id.make ~vid ~ino:0) in
    match rpc cl ~src ~dst:host (Msg.Create_file { vid }) with
    | Msg.R_fid fid -> (
      (* Lost race with a concurrent first resolver: keep the winner's. *)
      match cl.root_dir with
      | Some existing -> existing
      | None ->
        cl.root_dir <- Some fid;
        bind_path cl "/" fid;
        fid)
    | r -> failwith (Fmt.str "root_dir: %a" Msg.pp_reply r))
let path_of cl fid = Hashtbl.find_opt cl.paths fid

let create_file cl ~src ~path ~vid =
  if Hashtbl.mem cl.namespace path then
    invalid_arg (Printf.sprintf "Kernel.create_file: %s exists" path);
  let host =
    storage_site cl (File_id.make ~vid ~ino:0)
  in
  match rpc cl ~src ~dst:host (Msg.Create_file { vid }) with
  | Msg.R_fid fid ->
    Hashtbl.replace cl.namespace path fid;
    Hashtbl.replace cl.paths fid path;
    fid
  | r -> failwith (Fmt.str "create_file: %a" Msg.pp_reply r)

(* {1 Rule 2 of §3.3}

   When a transaction locks a range containing modified-but-uncommitted
   records, it becomes responsible for them: non-transaction owners'
   dirty bytes are adopted, and the lock is retained whatever its mode. *)
let apply_rule2 k table fid ~owner ~range =
  match owner with
  | Owner.Process _ -> ()
  | Owner.Transaction _ ->
    let dirty = Filestore.uncommitted_overlapping k.store fid range in
    if dirty <> [] then begin
      if List.exists (fun o -> not (Owner.equal o owner)) dirty then
        Filestore.adopt k.store fid ~range ~new_owner:owner;
      Lock_table.mark_retained table owner ~range
    end

(* {1 Abort reasons and the deadlock service (§3.1)} *)

(* Abort-reason taxonomy: first-class counters ([txn.abort.<reason>]), so
   "why do transactions abort in this workload" is answerable without a
   span collector installed. *)
type abort_reason = Deadlock | Orphan | Crash | Degraded_vote | Coordinator_lost | User

let abort_reason_label = function
  | Deadlock -> "deadlock"
  | Orphan -> "orphan"
  | Crash -> "crash"
  | Degraded_vote -> "degraded_vote"
  | Coordinator_lost -> "coordinator_lost"
  | User -> "user"

let count_abort cl reason =
  Stats.incr (Engine.stats cl.c_engine) ("txn.abort." ^ abort_reason_label reason)

(* Forward declaration, the kernel's one: deadlock victims and
   transactions stranded by lost lock state must be aborted, but
   [abort_transaction] needs the transaction plumbing defined further
   down. *)
let abort_transaction_ref :
    (cluster -> reason:abort_reason -> src:Site.t -> Txid.t -> unit) ref =
  ref (fun _ ~reason:_ ~src:_ _ -> ())

let deadlock_scan cl ~src =
  Stats.incr (Engine.stats cl.c_engine) "deadlock.scans";
  let victims =
    Locus_deadlock.Detector.victims cl.cfg.Config.deadlock_policy (lock_tables cl)
  in
  List.iter
    (fun victim ->
      Stats.incr (Engine.stats cl.c_engine) "deadlock.victims";
      Trace.emitf (Engine.trace cl.c_engine) ~at:(Engine.now cl.c_engine)
        ~cat:Trace.Lock ~site:src "deadlock victim %a" Owner.pp victim;
      match victim with
      | Owner.Transaction txid ->
        !abort_transaction_ref cl ~reason:Deadlock ~src txid
      | Owner.Process _ ->
        List.iter (fun t -> Lock_table.cancel_owner t victim) (lock_tables cl))
    victims;
  victims

(* {1 Lock requests} *)

let grant_lock k ~fid ~owner ~pid ~mode ~range ~non_transaction ~wait =
  Engine.consume k.engine ~instr:(costs k).Costs.lock_request_instr;
  Stats.incr (stats k) "lock.requests";
  let obs_granted () =
    obs k (Obs.Lock { owner; pid; fid; range; mode; non_transaction })
  in
  let table = ensure_table k fid in
  match Lock_table.request table ~owner ~pid ~mode ~range ~non_transaction with
  | `Granted ->
    apply_rule2 k table fid ~owner ~range;
    tr k Trace.Lock "grant %a %a %a %a" File_id.pp fid Owner.pp owner Mode.pp mode
      Byte_range.pp range;
    obs_granted ();
    `Granted
  | `Conflict owners ->
    tr k Trace.Lock "conflict %a %a blocked by %a" File_id.pp fid Owner.pp owner
      Fmt.(list ~sep:comma Owner.pp) owners;
    if not wait then `Conflict owners
    else begin
      Stats.incr (stats k) "lock.waits";
      let queue_depth = Lock_table.waiting table + 1 in
      let wait_from = Engine.now k.engine in
      let wspan =
        match k.cl.otracer with
        | None -> None
        | Some otr ->
          Some
            ( otr,
              Otrace.start otr ~site:k.site ~cat:"lock" "lock.wait"
                ~args:
                  [
                    ("fid", Fmt.str "%a" File_id.pp fid);
                    ("owner", Fmt.str "%a" Owner.pp owner);
                    ("range", Fmt.str "%a" Byte_range.pp range);
                    ("queue", string_of_int queue_depth);
                  ] )
      in
      let iv = Engine.Ivar.create () in
      let w =
        Lock_table.enqueue table ~owner ~pid ~mode ~range ~non_transaction
          ~notify:(fun ok -> ignore (Engine.try_fill k.engine iv ok))
      in
      let rec wait_loop rounds =
        match
          Engine.await_timeout iv ~timeout:k.cl.cfg.Config.deadlock_patience_us
        with
        | Some true ->
          apply_rule2 k table fid ~owner ~range;
          obs_granted ();
          `Granted
        | Some false -> `Cancelled
        | None ->
          (* Blocked suspiciously long: run the wait-for-graph service
             (§3.1). If we were the victim our wait gets cancelled and the
             next round sees it. *)
          let (_ : Owner.t list) = deadlock_scan k.cl ~src:k.site in
          if rounds >= 40 then begin
            Lock_table.cancel table w;
            `Timeout
          end
          else wait_loop (rounds + 1)
      in
      (* The waiter may also be killed while parked (site crash, cascade
         abort): the finally below still closes the span and accounts the
         wait, so contention during aborts is not invisible. *)
      let outcome = ref "killed" in
      Fun.protect
        (fun () ->
          let r = wait_loop 0 in
          (outcome :=
             match r with
             | `Granted -> "granted"
             | `Cancelled -> "cancelled"
             | `Timeout -> "timeout");
          r)
        ~finally:(fun () ->
          let waited = Engine.now k.engine - wait_from in
          Stats.hist (stats k) "lock.wait_us" waited;
          match wspan with
          | None -> ()
          | Some (otr, sp) ->
            Otrace.finish otr sp ~args:[ ("outcome", !outcome) ];
            Otrace.note_wait otr
              ~fid:(Fmt.str "%a" File_id.pp fid)
              ~lo:range.Byte_range.lo ~wait_us:waited ~queue:queue_depth
              ~blockers:(List.map (Fmt.str "%a" Owner.pp) owners))
    end

(* Ranges of [range] not already covered by [owner]'s locks in a
   sufficient mode: the pieces a conventional (Unix) access must
   momentarily synchronize on. *)
let uncovered_pieces table ~owner ~range ~write =
  let sufficient (m : Mode.t) =
    match m with
    | Mode.Exclusive -> true
    | Mode.Shared -> not write
    | Mode.Unix_access -> false
  in
  let covered =
    List.fold_left
      (fun acc (l : Lock_table.lock) ->
        if Owner.equal l.Lock_table.owner owner && sufficient l.Lock_table.mode
        then Range_set.add l.Lock_table.range acc
        else acc)
      Range_set.empty (Lock_table.locks table)
  in
  Range_set.ranges (Range_set.diff (Range_set.of_range range) covered)

exception Denied of string

(* {1 Lock-control migration (§5.2)}

   A storage site may temporarily transfer its ability to manage a file's
   locks to a site whose processes are making heavy use of them. Clients
   learn the current authority through [R_redirect] replies and a hint
   map. Authority returns home ("recall") before anything that needs the
   lock state next to the data: prepare, data access with implicit
   locking, commit/abort lock release. *)

let lock_authority_hint cl fid = Hashtbl.find_opt cl.lock_authority fid
let note_lock_authority cl fid s = Hashtbl.replace cl.lock_authority fid s

let marshal_locks (locks : Lock_table.lock list) = Marshal.to_string locks []
let unmarshal_locks s : Lock_table.lock list = Marshal.from_string s 0

(* Where should this site handle (or send) a lock operation on [fid]? *)
let lock_route k fid =
  if Hashtbl.mem k.hosted fid then `Here
  else if k.site = storage_site k.cl fid then begin
    match Hashtbl.find_opt k.delegations fid with
    | Some d -> `Redirect d
    | None -> `Here
  end
  else `Redirect (storage_site k.cl fid)

(* Take lock management back from the delegate. On delegate crash the
   lock state dies with its volatile tables — exactly like any other
   volatile lock state lost in a crash; the topology sweep aborts the
   owning transactions. *)
let recall_locks k fid =
  match Hashtbl.find_opt k.delegations fid with
  | None -> ()
  | Some d ->
    let rec go tries =
      match rpc k.cl ~src:k.site ~dst:d (Msg.Recall_locks { fid }) with
      | Msg.R_data payload ->
        Hashtbl.replace k.locks fid (Lock_table.restore fid (unmarshal_locks (Bytes.to_string payload)));
        Hashtbl.remove k.delegations fid;
        note_lock_authority k.cl fid k.site;
        Stats.incr (stats k) "delegation.recalls"
      | Msg.R_retry when tries < 100 ->
        Engine.sleep 2_000;
        go (tries + 1)
      | _ ->
        (* Delegate unreachable: authority (and its volatile lock state)
           is gone. Resume with an empty table. *)
        Hashtbl.replace k.locks fid (Lock_table.create fid);
        Hashtbl.remove k.delegations fid;
        note_lock_authority k.cl fid k.site;
        Stats.incr (stats k) "delegation.lost"
    in
    go 0

let ensure_authority_home k fid =
  if Hashtbl.mem k.delegations fid then recall_locks k fid

(* Called at the home site on each remote lock request: hand authority to
   a site that keeps coming back. *)
let maybe_delegate k fid ~src =
  let cfg = k.cl.cfg in
  if cfg.Config.lock_delegation && src <> k.site then begin
    let streak =
      match Hashtbl.find_opt k.lock_origins fid with
      | Some (s, n) when s = src -> n + 1
      | Some _ | None -> 1
    in
    Hashtbl.replace k.lock_origins fid (src, streak);
    if
      streak >= cfg.Config.delegation_threshold
      && not (Hashtbl.mem k.delegations fid)
    then begin
      let table = ensure_table k fid in
      if Lock_table.waiting table = 0 then begin
        let payload = marshal_locks (Lock_table.locks table) in
        match rpc k.cl ~src:k.site ~dst:src (Msg.Delegate_locks { fid; payload }) with
        | Msg.R_ok ->
          Hashtbl.remove k.locks fid;
          Hashtbl.replace k.delegations fid src;
          Hashtbl.remove k.lock_origins fid;
          note_lock_authority k.cl fid src;
          tr k Trace.Lock "delegated %a to site%d" File_id.pp fid src;
          Stats.incr (stats k) "delegation.out"
        | _ -> ()
      end
    end
  end
  else if src = k.site then Hashtbl.remove k.lock_origins fid

(* {1 Dynamic lock placement (locus_shard)}

   Scale-out generalization of §5.2: instead of a per-file delegation
   that always returns home, each file's lock-manager role has a current
   owner recorded in a sharded directory (authoritative per-shard
   directory sites, {!Locus_repl.Placement.directory}), and the role
   migrates toward the site generating the traffic. Every site keeps a
   stale-tolerant hint cache; a wrong hint costs a redirect (or a retry),
   never a mis-grant, because ownership changes are epoch CAS operations
   at the directory and a transfer carrying a stale epoch is fenced by
   its receiver. The lock table (including retained locks of in-flight
   transactions) rides the transfer envelope, so 2PC / Paxos Commit
   survive a mid-transaction handoff: phase 2 releases chase the role to
   wherever it lives now. *)

let shard_dir_exn cl =
  match cl.shard_dir with
  | Some d -> d
  | None -> invalid_arg "Kernel: dynamic lock placement is not enabled"

(* Epoch-0 owner of a never-claimed fid: the first configured host of its
   volume — static, so every site derives the same default without
   consulting anyone. *)
let shard_default_owner cl fid =
  match Hashtbl.find_opt cl.vol_hosts fid.File_id.vid with
  | Some (h :: _) -> h
  | Some [] | None -> 0

(* Synchronous on purpose: both callers run inside [shard_migrate]'s
   hand-off window (shard_migrating set, every request bouncing) and the
   window must not close until the stranded owners are dead — the
   Shard_handoff handshake tells the new owner "settled" the moment the
   window lifts, and granting from a fresh table while these
   transactions still rely on their lost locks breaks 2PL. *)
let shard_abort_table_owners k table =
  let owners =
    List.sort_uniq compare
      (List.filter_map
         (fun (l : Lock_table.lock) ->
           match l.Lock_table.owner with
           | Owner.Transaction txid -> Some txid
           | Owner.Process _ -> None)
         (Lock_table.locks table))
  in
  List.iter
    (fun txid -> !abort_transaction_ref k.cl ~reason:Crash ~src:k.site txid)
    owners

(* Ask the directory who owns the role. [None] when the directory site is
   unreachable — the caller must bounce, never guess. *)
let shard_lookup k fid =
  let cl = k.cl in
  let dir = shard_dir_exn cl in
  let default = shard_default_owner cl fid in
  let ds = Shard_dir.site_of dir fid in
  if ds = k.site then begin
    Stats.incr (stats k) "shard.dir_lookups";
    Some (Shard_dir.lookup dir fid ~default)
  end
  else if not (Transport.reachable cl.net k.site ds) then None
  else
    match rpc cl ~src:k.site ~dst:ds (Msg.Shard_lookup { fid }) with
    | Msg.R_owner { owner; epoch; prev } -> Some (owner, epoch, prev)
    | _ -> None

(* Hand-off handshake (run before adopting an epoch > 0 record from a
   fresh table): the last claimer may still be mid-transfer, in which
   case the previous epoch's lock table — and every transaction it
   protects — is still live somewhere, and granting from an empty table
   here would let new locks collide with them. Safe to proceed once the
   claimer reports the hand-off settled (it delivered the envelope, or
   aborted the stranded owners before standing down), or once it has
   crashed outright (its volatile table died with it and the crash sweep
   aborts the owners). A merely unreachable claimer keeps us bouncing:
   never guess. *)
let shard_adoptable k fid ~epoch ~prev =
  epoch = 0 || prev = k.site
  || (not (Transport.site_up k.cl.net prev))
  || Transport.reachable k.cl.net k.site prev
     && (match rpc k.cl ~src:k.site ~dst:prev (Msg.Shard_handoff { fid }) with
        | Msg.R_int 0 -> true
        | _ -> false)

(* Install the role here without a transfer: the directory names this
   site owner (epoch-0 default, or a re-homing) but no envelope ever
   arrived. Rejected when we already stood down at a later epoch.
   An epoch > 0 adoption is a real ownership change (a claim happened
   but its table transfer was lost — e.g. to message drops), so it must
   be announced like any migration or the epoch-fence oracle would still
   hold the previous owner responsible for every later grant. [from_site
   = k.site] marks it as an adoption: no envelope ever arrived. *)
let shard_adopt k fid ~epoch =
  let ok =
    match Hashtbl.find_opt k.shard_epochs fid with
    | Some e -> epoch >= e
    | None -> true
  in
  if ok then begin
    let fresh =
      epoch > 0
      && ((not (Hashtbl.mem k.shard_owned fid))
         || (match Hashtbl.find_opt k.shard_epochs fid with
            | Some e -> epoch > e
            | None -> true))
    in
    Hashtbl.replace k.shard_owned fid ();
    Hashtbl.replace k.shard_epochs fid epoch;
    ignore (ensure_table k fid);
    if fresh then begin
      Stats.incr (stats k) "shard.adoptions";
      obs k (Obs.Migrate { fid; from_site = k.site; to_site = k.site; epoch })
    end
  end;
  ok

(* Where should this site handle (or send) a lock operation on [fid]?
   Trust the local hint first; a stale hint redirects (the fence at the
   true owner keeps mis-grants impossible), a missing hint asks the
   directory, an unreachable directory bounces for retry. *)
let shard_route k fid =
  (* A transfer in flight froze the table snapshot: admitting operations
     now would mutate state the destination will never see. Bounce them
     until the hand-off settles one way or the other. *)
  if Hashtbl.mem k.shard_migrating fid then `Retry
  else if Hashtbl.mem k.shard_owned fid then `Here
  else
    match Hashtbl.find_opt k.shard_hints fid with
    | Some s when s <> k.site -> `Redirect s
    | Some _ | None -> (
      match shard_lookup k fid with
      | None -> `Retry
      | Some (owner, epoch, prev) ->
        if owner = k.site then begin
          if shard_adoptable k fid ~epoch ~prev && shard_adopt k fid ~epoch
          then `Here
          else `Retry
        end
        else begin
          Hashtbl.replace k.shard_hints fid owner;
          `Redirect owner
        end)

let note_migrated k fid ~from_site ~epoch =
  Stats.incr (stats k) "shard.migrations";
  obs k (Obs.Migrate { fid; from_site; to_site = k.site; epoch });
  match k.cl.otracer with
  | None -> ()
  | Some otr ->
    Otrace.note_migration otr
      ~fid:(Fmt.str "%a" File_id.pp fid)
      ~from_site ~to_site:k.site ~epoch

(* Move the role (and its lock table) from this site to [dst]: mark the
   transfer, win the epoch CAS at the directory, ship the table, stand
   down. Any failure leaves the directory authoritative — we either keep
   serving (claim never happened) or cede ownership (claim happened but
   the transfer was lost; stranded transactions are aborted). *)
let shard_migrate k fid ~dst =
  let cl = k.cl in
  if
    Hashtbl.mem k.shard_owned fid
    && (not (Hashtbl.mem k.shard_migrating fid))
    && dst <> k.site
    && Transport.reachable cl.net k.site dst
  then begin
    let table = ensure_table k fid in
    if Lock_table.transferable table then begin
      Hashtbl.replace k.shard_migrating fid ();
      Fun.protect ~finally:(fun () -> Hashtbl.remove k.shard_migrating fid)
      @@ fun () ->
      with_span k ~cat:"shard" "shard.migrate"
        ~args:
          [ ("fid", Fmt.str "%a" File_id.pp fid); ("dst", string_of_int dst) ]
      @@ fun () ->
      let cur_epoch =
        match Hashtbl.find_opt k.shard_epochs fid with Some e -> e | None -> 0
      in
      let dir = shard_dir_exn cl in
      let default = shard_default_owner cl fid in
      let ds = Shard_dir.site_of dir fid in
      let claim =
        if ds = k.site then begin
          Stats.incr (stats k) "shard.dir_claims";
          match
            Shard_dir.claim dir fid ~default ~new_owner:dst
              ~from_epoch:cur_epoch ~claimer:k.site
          with
          | Ok e -> `Won e
          | Error (o, e) ->
            Stats.incr (stats k) "shard.dir_claim_stale";
            `Lost (o, e)
        end
        else
          match
            rpc cl ~src:k.site ~dst:ds
              (Msg.Shard_claim { fid; new_owner = dst; from_epoch = cur_epoch })
          with
          | Msg.R_owner { owner; epoch; prev = _ } ->
            if owner = dst && epoch = cur_epoch + 1 then `Won epoch
            else `Lost (owner, epoch)
          | _ -> `Unreachable
      in
      match claim with
      | `Unreachable -> ()  (* directory partitioned away: keep serving *)
      | `Lost (owner, epoch) ->
        (* Fenced: someone re-homed the role out from under us (our copy
           of the lock state is dead). Drop it and abort its owners. *)
        Stats.incr (stats k) "shard.fenced";
        Hashtbl.remove k.shard_owned fid;
        Hashtbl.remove k.locks fid;
        Hashtbl.remove k.shard_origins fid;
        Hashtbl.replace k.shard_epochs fid epoch;
        Hashtbl.replace k.shard_hints fid owner;
        shard_abort_table_owners k table
      | `Won new_epoch -> (
        let payload = marshal_locks (Lock_table.locks table) in
        match
          rpc_retry_p cl cl.cfg.Config.retries.Config.shard
            ~retry_if:(fun r -> r = Msg.R_retry)
            ~src:k.site ~dst
            (envelope cl (Msg.Shard_migrate { fid; epoch = new_epoch; payload }))
        with
        | Ok Msg.R_ok ->
          tr k Trace.Lock "shard migrate %a -> site%d e%d" File_id.pp fid dst
            new_epoch;
          Hashtbl.remove k.shard_origins fid;
          if Mutant.(armed Shard) then
            (* Self-test fault: fail to stand down — keep the table and
               keep granting at the stale epoch, and wipe the global
               client hint so traffic still reaches us. The epoch-fence
               oracle must flag the resulting split-brain grants. *)
            Hashtbl.remove cl.lock_authority fid
          else begin
            Hashtbl.remove k.shard_owned fid;
            Hashtbl.remove k.locks fid;
            Hashtbl.replace k.shard_epochs fid new_epoch;
            Hashtbl.replace k.shard_hints fid dst;
            note_lock_authority cl fid dst
          end
        | Ok _ | Error _ ->
          (* The directory now names [dst] owner but the table never
             arrived: cede ownership (the fence makes our copy unusable)
             and abort the transactions whose lock state was lost — same
             failure mode as a delegate crash in §5.2. *)
          Stats.incr (stats k) "shard.transfer_lost";
          Hashtbl.remove k.shard_owned fid;
          Hashtbl.remove k.locks fid;
          Hashtbl.remove k.shard_origins fid;
          Hashtbl.replace k.shard_epochs fid new_epoch;
          Hashtbl.replace k.shard_hints fid dst;
          shard_abort_table_owners k table)
    end
  end

(* Called at the owner on each lock request: hand the role to a site that
   keeps coming back (threshold policy on remote-acquisition streaks). *)
let maybe_shard_migrate k fid ~src =
  if src = k.site then Hashtbl.remove k.shard_origins fid
  else begin
    let streak =
      match Hashtbl.find_opt k.shard_origins fid with
      | Some (s, n) when s = src -> n + 1
      | Some _ | None -> 1
    in
    Hashtbl.replace k.shard_origins fid (src, streak);
    if
      Shard_policy.decide k.cl.cfg.Config.shard_policy ~streak
      && not (Hashtbl.mem k.shard_migrating fid)
    then shard_migrate k fid ~dst:src
  end

(* Send a lock-control message to the fid's current owner, chasing hints
   and redirects, falling back to a directory lookup when a hop bounces
   or is unreachable. *)
let shard_owner_rpc k fid msg =
  let cl = k.cl in
  let refresh dst =
    Hashtbl.remove k.shard_hints fid;
    Engine.sleep 2_000;
    match shard_lookup k fid with
    | Some (owner, _, _) ->
      Hashtbl.replace k.shard_hints fid owner;
      owner
    | None -> dst
  in
  let rec go dst tries =
    if tries > 24 then Msg.R_err "shard owner unreachable"
    else begin
      let reply =
        if not (Transport.reachable cl.net k.site dst) then `Down
        else
          match Transport.rpc cl.net ~src:k.site ~dst (envelope cl msg) with
          | Ok r -> `R r
          | Error _ -> `Down
      in
      match reply with
      | `Down | `R Msg.R_retry -> go (refresh dst) (tries + 1)
      | `R (Msg.R_redirect d) ->
        Stats.incr (stats k) "shard.forwards";
        Hashtbl.replace k.shard_hints fid d;
        go d (tries + 1)
      | `R r -> r
    end
  in
  let start =
    match Hashtbl.find_opt k.shard_hints fid with
    | Some s -> s
    | None -> shard_default_owner cl fid
  in
  go start 0

(* Data-path entry points: when the role lives at another site, locks
   are acquired (and released) there by message. *)

let shard_remote k fid =
  if
    (not (sharded k.cl))
    || Hashtbl.mem k.shard_owned fid
       && not (Hashtbl.mem k.shard_migrating fid)
  then false
  else
    let rec go tries =
      match shard_route k fid with
      | `Here -> false
      | `Redirect _ -> true
      | `Retry when tries < 24 ->
        Engine.sleep 2_000;
        go (tries + 1)
      | `Retry -> raise (Denied "shard directory unreachable")
    in
    go 0

let shard_ensure_remote k ~fid ~owner ~pid ~range ~write ~dirty =
  match
    shard_owner_rpc k fid
      (Msg.Ensure_lock { fid; owner; pid; range; write; momentary = false; dirty })
  with
  | Msg.R_ok -> ()
  | Msg.R_err e -> raise (Denied e)
  | _ -> raise (Denied "shard lock acquisition failed")

let shard_momentary_acquire k ~fid ~owner ~pid ~range ~write =
  match
    shard_owner_rpc k fid
      (Msg.Ensure_lock
         { fid; owner; pid; range; write; momentary = true; dirty = false })
  with
  | Msg.R_pieces pieces -> pieces
  | Msg.R_err e -> raise (Denied e)
  | _ -> raise (Denied "shard momentary lock failed")

let shard_release_pieces k ~fid ~owner ~pid ~pieces =
  if pieces <> [] then
    ignore
      (shard_owner_rpc k fid
         (Msg.Release_locks { fid; owner; pid; ranges = Some pieces; cancel = false }))

(* Phase-2 lock release under dynamic placement: drop the transaction's
   (or exiting process's) locks at whatever site holds the role now. *)
let shard_release k fid ~owner ~cancel =
  if
    Hashtbl.mem k.shard_owned fid
    && not (Hashtbl.mem k.shard_migrating fid)
  then begin
    match lock_table k fid with
    | Some table ->
      if cancel then Lock_table.cancel_owner table owner;
      Lock_table.release_owner table owner
    | None -> ()
  end
  else
    ignore
      (shard_owner_rpc k fid
         (Msg.Release_locks
            {
              fid;
              owner;
              pid = Pid.make ~origin:k.site ~num:0;
              ranges = None;
              cancel;
            }))

(* Re-home the role to this site directly through the directory — only
   legitimate when the recorded owner is {e crashed} (its volatile lock
   state is gone); a merely partitioned owner keeps the role, so both
   sides of the split agree who grants. Transactions whose uncommitted
   bytes were protected by the lost table are aborted. *)
let shard_rehome k fid =
  let cl = k.cl in
  match shard_lookup k fid with
  | None -> false
  | Some (owner, epoch, prev) ->
    if owner = k.site then
      shard_adoptable k fid ~epoch ~prev && shard_adopt k fid ~epoch
    else if Transport.site_up cl.net owner then false
    else begin
      let dir = shard_dir_exn cl in
      let default = shard_default_owner cl fid in
      let ds = Shard_dir.site_of dir fid in
      let claim =
        if ds = k.site then begin
          Stats.incr (stats k) "shard.dir_claims";
          match
            Shard_dir.claim dir fid ~default ~new_owner:k.site
              ~from_epoch:epoch ~claimer:k.site
          with
          | Ok e -> Some e
          | Error _ ->
            Stats.incr (stats k) "shard.dir_claim_stale";
            None
        end
        else
          match
            rpc cl ~src:k.site ~dst:ds
              (Msg.Shard_claim { fid; new_owner = k.site; from_epoch = epoch })
          with
          | Msg.R_owner { owner = o; epoch = e; prev = _ }
            when o = k.site && e = epoch + 1
            ->
            Some e
          | _ -> None
      in
      match claim with
      | None -> false
      | Some new_epoch ->
        Hashtbl.replace k.locks fid (Lock_table.create fid);
        Hashtbl.replace k.shard_owned fid ();
        Hashtbl.replace k.shard_epochs fid new_epoch;
        Hashtbl.replace k.shard_hints fid k.site;
        note_lock_authority cl fid k.site;
        Stats.incr (stats k) "shard.rehomed";
        note_migrated k fid ~from_site:owner ~epoch:new_epoch;
        (* The lost table may have protected in-doubt bytes stored here:
           abort their transactions before anyone locks over them. *)
        if Filestore.is_open k.store fid || Filestore.file_exists k.store fid
        then begin
          let span = Byte_range.of_pos_len ~pos:0 ~len:max_int in
          List.iter
            (fun o ->
              match o with
              | Owner.Transaction txid
                when not (Participant.is_prepared k.participant txid) ->
                ignore
                  (Engine.spawn ~name:"shard-abort" ~site:k.site k.engine
                     (fun () ->
                       !abort_transaction_ref k.cl ~reason:Crash ~src:k.site
                         txid))
              | Owner.Transaction _ | Owner.Process _ -> ())
            (Filestore.uncommitted_overlapping k.store fid span)
        end;
        true
    end

(* Pull the role to this site (cooperative transfer via the current
   owner; direct re-home when that owner crashed). Used by the EOF path
   and by recovery before relocking prepared intentions. *)
let shard_claim_home k fid =
  let home () =
    Hashtbl.mem k.shard_owned fid
    && not (Hashtbl.mem k.shard_migrating fid)
  in
  if sharded k.cl && not (home ()) then begin
    let cl = k.cl in
    let rec go tries =
      if home () then ()
      else if tries > 24 then raise (Denied "shard claim-home failed")
      else
        match shard_route k fid with
        | `Here -> ()
        | `Retry ->
          Engine.sleep 2_000;
          go (tries + 1)
        | `Redirect d ->
          if Transport.reachable cl.net k.site d then begin
            (match
               rpc cl ~src:k.site ~dst:d
                 (Msg.Shard_migrate_req { fid; dst = k.site })
             with
            | Msg.R_ok -> ()
            | _ -> Hashtbl.remove k.shard_hints fid);
            if not (home ()) then begin
              Engine.sleep 2_000;
              go (tries + 1)
            end
          end
          else if not (Transport.site_up cl.net d) then begin
            if not (shard_rehome k fid) then begin
              Engine.sleep 2_000;
              go (tries + 1)
            end
          end
          else begin
            (* Partitioned (not crashed) owner: wait it out. *)
            Engine.sleep 2_000;
            Hashtbl.remove k.shard_hints fid;
            go (tries + 1)
          end
    in
    go 0
  end

(* Drive a migration from outside the kernel (fault injection, locusctl):
   ask the current owner, wherever it is, to hand the role to [dst]. *)
let force_migrate cl ~src fid ~dst =
  if sharded cl then begin
    let k = kernel cl src in
    ignore (shard_owner_rpc k fid (Msg.Shard_migrate_req { fid; dst }))
  end

(* Introspection (locusctl shard-status, tests). *)
let shard_owner cl fid =
  match cl.shard_dir with
  | None -> None
  | Some dir ->
    let owner, epoch, _ =
      Shard_dir.lookup dir fid ~default:(shard_default_owner cl fid)
    in
    Some (owner, epoch)

let shard_status cl =
  match cl.shard_dir with
  | None -> []
  | Some dir ->
    List.map
      (fun (fid, owner, epoch) -> (fid, path_of cl fid, owner, epoch))
      (Shard_dir.entries dir)

(* {1 Implicit locking on the data paths} *)

(* Conventional Unix access by a non-transaction process: behave as a
   momentary holder of the appropriate Figure-1 mode on each byte range
   not already covered by the process's explicit locks. *)
let with_momentary k ~fid ~owner ~pid ~range ~write f =
  if shard_remote k fid then begin
    (* The lock-manager role lives elsewhere: hold the uncovered pieces
       there for the duration of the access. *)
    let pieces = shard_momentary_acquire k ~fid ~owner ~pid ~range ~write in
    Fun.protect f ~finally:(fun () ->
        shard_release_pieces k ~fid ~owner ~pid ~pieces)
  end
  else begin
    let table = ensure_table k fid in
    let mode = if write then Mode.Exclusive else Mode.Shared in
    let pieces = uncovered_pieces table ~owner ~range ~write in
    List.iter
      (fun piece ->
        match
          grant_lock k ~fid ~owner ~pid ~mode ~range:piece ~non_transaction:false
            ~wait:true
        with
        | `Granted -> ()
        | `Conflict _ | `Cancelled | `Timeout -> raise (Denied "access blocked"))
      pieces;
    Fun.protect f ~finally:(fun () ->
        List.iter
          (fun piece -> Lock_table.unlock table ~owner ~pid ~range:piece)
          pieces)
  end

(* Transaction access: two-phase locks are acquired implicitly at record
   access time when not already held (§3.1). *)
let ensure_txn_lock k ~fid ~owner ~pid ~range ~write =
  if shard_remote k fid then begin
    (* Rule 2 needs the data (here, at the storage site) and the lock
       state (at the current role owner): detect dirty overlap locally,
       tell the owner so it retains the lock, and adopt the bytes here. *)
    let dirty = Filestore.uncommitted_overlapping k.store fid range <> [] in
    shard_ensure_remote k ~fid ~owner ~pid ~range ~write ~dirty;
    if dirty then Filestore.adopt k.store fid ~range ~new_owner:owner
  end
  else begin
    let table = ensure_table k fid in
    if not (Lock_table.owner_covers table ~owner ~range ~write) then begin
      let mode = if write then Mode.Exclusive else Mode.Shared in
      match
        grant_lock k ~fid ~owner ~pid ~mode ~range ~non_transaction:false
          ~wait:true
      with
      | `Granted -> Stats.incr (stats k) "lock.implicit"
      | `Cancelled -> raise (Denied "transaction aborted while waiting for lock")
      | `Timeout -> raise (Denied "lock timeout")
      | `Conflict _ -> raise (Denied "lock conflict")
    end
  end

(* {1 Storage-site operations (run at the file's storage site)} *)

(* A degraded copy must not originate new versions: two sites both
   bumping a file to version [n] with different contents could never be
   reconciled. Reads stay available (flagged degraded); updates wait for
   reconciliation. *)
let ensure_writable_vid k vid =
  match Hashtbl.find_opt k.cl.vol_hosts vid with
  | Some hosts when List.length hosts > 1 ->
    if Status.state k.repl vid = Status.Degraded then
      raise
        (Denied
           (Printf.sprintf
              "vol%d replica degraded: updates refused until reconciled" vid))
  | Some _ | None -> ()

let ensure_writable k fid = ensure_writable_vid k fid.File_id.vid

let ss_read k ~fid ~reader ~pid ~pos ~len =
  if len <= 0 then Bytes.create 0
  else begin
    ensure_authority_home k fid;
    let range = Byte_range.of_pos_len ~pos ~len in
    let data =
      match reader with
      | Owner.Transaction _ ->
        ensure_txn_lock k ~fid ~owner:reader ~pid ~range ~write:false;
        Filestore.read k.store fid ~pos ~len
      | Owner.Process _ ->
        with_momentary k ~fid ~owner:reader ~pid ~range ~write:false (fun () ->
            Filestore.read k.store fid ~pos ~len)
    in
    let access =
      { Obs.owner = reader; pid; fid; range; data = Bytes.to_string data }
    in
    (if List.length (replica_sites k.cl fid) > 1 then
       (* Replicated volume: record the serving version so the checker
          can compare copies (one-copy serializability). *)
       obs k
         (Obs.Replica_read
            {
              access;
              version = Filestore.committed_version k.store fid;
              degraded = Status.state k.repl fid.File_id.vid = Status.Degraded;
            })
     else obs k (Obs.Read access));
    data
  end

let ss_write k ~fid ~owner ~pid ~pos ~data =
  let len = Bytes.length data in
  if len > 0 then begin
    ensure_authority_home k fid;
    ensure_writable k fid;
    let range = Byte_range.of_pos_len ~pos ~len in
    (match owner with
    | Owner.Transaction _ ->
      ensure_txn_lock k ~fid ~owner ~pid ~range ~write:true;
      (* Rule 2 may apply even when the lock was acquired earlier. *)
      Filestore.adopt k.store fid ~range ~new_owner:owner;
      Filestore.write k.store fid ~owner ~pos data
    | Owner.Process _ ->
      with_momentary k ~fid ~owner ~pid ~range ~write:true (fun () ->
          (* A later conventional writer takes over earlier conventional
             writers' uncommitted bytes (§5: uncommitted changes are
             visible and may be committed by anyone). *)
          Filestore.adopt k.store fid ~range ~new_owner:owner;
          Filestore.write k.store fid ~owner ~pos data));
    obs k (Obs.Write { owner; pid; fid; range; data = Bytes.to_string data })
  end

(* Atomic lock-and-extend at end of file (§3.2): retry with a fresh EOF
   whenever someone else extended the file while we waited. *)
let ss_lock_append k ~fid ~owner ~pid ~len ~mode ~non_transaction =
  ensure_authority_home k fid;
  (* Atomic EOF-and-lock needs the lock state next to the file size: pull
     the migrated role home first (no-op when placement is static). *)
  shard_claim_home k fid;
  let rec attempt tries =
    if tries > 100 then raise (Denied "lock_append: livelock")
    else begin
      let eof = Filestore.size k.store fid in
      let range = Byte_range.of_pos_len ~pos:eof ~len in
      match grant_lock k ~fid ~owner ~pid ~mode ~range ~non_transaction ~wait:true with
      | `Granted ->
        let eof' = Filestore.size k.store fid in
        if eof' = eof then eof
        else begin
          (* The file grew while we waited: our lock no longer covers the
             true end of file. Release and retry against the new EOF. *)
          let table = ensure_table k fid in
          Lock_table.unlock table ~owner ~pid ~range;
          attempt (tries + 1)
        end
      | `Conflict _ | `Cancelled | `Timeout -> raise (Denied "lock_append failed")
    end
  in
  attempt 0

(* {1 Replication (§5.2)}

   Every volume has one primary update site (its storage site) plus any
   number of secondaries. All locking and all updates go through the
   primary; each commit bumps the file's version number there, and the
   committed pages propagate to the secondaries as versioned deltas
   during phase 2, before the transaction's locks are released — so a
   lock-covered read served by a secondary is one-copy fresh. The
   version numbers make missed propagation detectable: a delta that is
   not exactly the next version triggers a snapshot pull, and partitions
   or restarts mark whole volume copies degraded until a reconciliation
   pass has caught them up from their co-hosts. *)

let hosted_replicated_vids k =
  List.filter_map
    (fun (vid, hosts) ->
      if List.mem k.site hosts && List.length hosts > 1 then Some vid else None)
    k.cl.cfg.Config.volumes

(* Full versioned snapshot of the committed copy, for pulls and for
   propagating freshly created files. *)
let replica_snapshot k fid =
  let version = Filestore.committed_version k.store fid in
  let size = Filestore.committed_size k.store fid in
  let pages =
    List.filter_map
      (fun i ->
        Option.map (fun b -> (i, b)) (Filestore.committed_page k.store fid i))
      (Filestore.committed_page_indices k.store fid)
  in
  Update.full ~fid ~version ~size pages

(* Propagate a file's newly committed version to the other hosts of its
   volume (§5.2 commit propagation from the primary update site).
   [indices] narrows the payload to the pages one commit touched; without
   it a full snapshot is sent. [initial] marks the create-time seeding of
   the version-1 file, which even the [Mutant.Repl] self-test
   fault lets through — the simulated breakage is "commits stop reaching
   existing copies", not "the file never replicates at all" (the latter
   would make every secondary read fail over to the primary and hide the
   staleness the checker is supposed to catch). *)
let propagate_replicas k ?indices ?(initial = false) fid =
  if
    k.cl.cfg.Config.replica_sync
    && ((not Mutant.(armed Repl)) || initial)
    && Filestore.file_exists k.store fid
  then begin
    let others = List.filter (fun s -> s <> k.site) (replica_sites k.cl fid) in
    if others <> [] then begin
      let u =
        match indices with
        | None -> replica_snapshot k fid
        | Some idxs ->
          let version = Filestore.committed_version k.store fid in
          let size = Filestore.committed_size k.store fid in
          let pages =
            List.filter_map
              (fun i ->
                Option.map
                  (fun b -> (i, b))
                  (Filestore.committed_page k.store fid i))
              (List.sort_uniq Int.compare idxs)
          in
          Update.delta ~fid ~version ~size pages
      in
      let pctx = wire_ctx k.cl in
      let send dst () =
        if Transport.reachable k.cl.net k.site dst then
          with_span k ?parent:pctx ~cat:"repl" "replica.propagate"
            ~args:
              [
                ("dst", string_of_int dst);
                ("version", string_of_int u.Update.version);
              ]
          @@ fun () ->
          match
            rpc_retry_batched_p k.cl k.cl.cfg.Config.retries.Config.replica
              ~src:k.site ~dst
              (envelope k.cl (Msg.Replica_commit { update = u }))
          with
          | Ok Msg.R_ok ->
            obs k (Obs.Propagate { fid; version = u.Update.version; dst });
            Stats.incr (stats k) "replica.propagate";
            Stats.add (stats k) "replica.propagate_bytes" (Update.bytes u)
          | Ok _ | Error _ ->
            (* The secondary missed this version; it catches up in its
               reconciliation pass after the next topology event. *)
            Stats.incr (stats k) "replica.propagate_miss"
      in
      (* With a batch window on, send to all secondaries concurrently so
         one commit's deltas (and any concurrent commit's) can coalesce
         per destination; without one, keep today's sequential order. *)
      if k.cl.cfg.Config.rpc_batch_window_us > 0 then
        par_iter k ~name:"repl-send" (List.map send others)
      else List.iter (fun dst -> send dst ()) others
    end
  end

(* Reconciliation: pull every committed version this copy is missing
   from the reachable co-hosts. The copy becomes fresh again only once a
   full pass has seen answers from all of them — a partial pass cannot
   rule out a missed update hiding at the unreachable host. Generation
   guards let a newer degrade event supersede a running reconciler. *)
let rec reconcile k ~vid ~gen tries =
  let cl = k.cl in
  let live () =
    k.alive
    && Status.generation k.repl vid = gen
    && Status.state k.repl vid = Status.Degraded
  in
  let retry () =
    (* Bounded: a copy that cannot reconcile (co-host down for good)
       just stays degraded until the next topology event re-triggers
       us — an unbounded loop would keep the simulation from draining. *)
    if tries < 120 then begin
      Engine.sleep 500_000;
      if live () then reconcile k ~vid ~gen (tries + 1)
    end
    else Stats.incr (stats k) "replica.reconcile_gave_up"
  in
  if live () then begin
    if not k.recovered then retry ()
      (* Our own recovery may still be applying in-doubt commits; a pass
         now could go fresh while missing them. *)
    else begin
      let others =
        match Hashtbl.find_opt cl.vol_hosts vid with
        | Some hosts -> List.filter (fun s -> s <> k.site) hosts
        | None -> []
      in
      let complete = ref true in
      List.iter
        (fun h ->
          if not (Transport.reachable cl.net k.site h) then complete := false
          else begin
            match rpc cl ~src:k.site ~dst:h (Msg.Replica_versions { vid }) with
            | Msg.R_versions vs ->
              List.iter
                (fun (ino, v) ->
                  let fid = File_id.make ~vid ~ino in
                  if v > Filestore.committed_version k.store fid then begin
                    match rpc cl ~src:k.site ~dst:h (Msg.Replica_pull { fid }) with
                    | Msg.R_update u ->
                      if
                        Filestore.install_replica k.store fid
                          ~version:u.Update.version ~size:u.Update.size
                          ~full:true ~pages:u.Update.pages
                      then begin
                        obs k
                          (Obs.Reconcile
                             { fid; version = u.Update.version; src = h });
                        Stats.incr (stats k) "replica.reconciled"
                      end
                    | _ -> complete := false
                  end)
                vs
            | _ -> complete := false
          end)
        others;
      if !complete && live () then begin
        Status.refresh k.repl vid;
        tr k Trace.Recovery "replica vol%d reconciled, fresh again" vid;
        Stats.incr (stats k) "replica.reconcile_passes"
      end
      else retry ()
    end
  end

let mark_degraded k vid =
  if k.alive then begin
    let gen = Status.degrade k.repl vid in
    ignore
      (Engine.spawn
         ~name:(Printf.sprintf "reconcile@%d" k.site)
         ~site:k.site k.engine
         (fun () -> reconcile k ~vid ~gen 0))
  end

(* Apply a propagated commit at a secondary. Exactly-next versions (and
   full snapshots) install; duplicates are ignored; a gap means we missed
   a delta and triggers an immediate snapshot pull from the sender. *)
let ss_replica_commit k ~src (u : Update.t) =
  let fid = u.Update.fid in
  let vid = fid.File_id.vid in
  if Filestore.volume k.store ~vid = None then Msg.R_err "volume not hosted"
  else begin
    let local = Filestore.committed_version k.store fid in
    if u.Update.version <= local then Msg.R_ok (* duplicate retransmission *)
    else if u.Update.full || u.Update.version = local + 1 then begin
      ignore
        (Filestore.install_replica k.store fid ~version:u.Update.version
           ~size:u.Update.size ~full:u.Update.full ~pages:u.Update.pages);
      Stats.incr (stats k) "replica.apply";
      Msg.R_ok
    end
    else begin
      Stats.incr (stats k) "replica.gaps";
      match rpc k.cl ~src:k.site ~dst:src (Msg.Replica_pull { fid }) with
      | Msg.R_update u' ->
        if
          Filestore.install_replica k.store fid ~version:u'.Update.version
            ~size:u'.Update.size ~full:true ~pages:u'.Update.pages
        then obs k (Obs.Reconcile { fid; version = u'.Update.version; src });
        Msg.R_ok
      | _ ->
        (* Cannot fill the gap right now: the whole copy is suspect. *)
        mark_degraded k vid;
        Msg.R_ok
    end
  end

let ss_replica_pull k ~fid =
  if not k.recovered then Msg.R_retry
  else if not (Filestore.file_exists k.store fid) then Msg.R_err "not found"
  else Msg.R_update (replica_snapshot k fid)

let ss_replica_versions k ~vid =
  if not k.recovered then Msg.R_retry
  else
    match Filestore.volume k.store ~vid with
    | None -> Msg.R_err "volume not hosted"
    | Some vol ->
      Msg.R_versions
        (List.map
           (fun ino -> (ino, Volume.inode_version_nosim vol ino))
           (Volume.inode_numbers vol))

(* Serve a read from the local (secondary) copy's committed state. A
   fresh copy answers directly — synchronous propagation before lock
   release makes that one-copy fresh under the client's lock. A degraded
   copy bounces the client to the primary while one is reachable, and
   otherwise serves the best it has, flagged as failover. *)
let ss_replica_read k ~fid ~reader ~pid ~pos ~len =
  let vid = fid.File_id.vid in
  if not (List.mem k.site (replica_sites k.cl fid)) then
    Msg.R_err "not a replica host"
  else if len <= 0 then Msg.R_data (Bytes.create 0)
  else begin
    let serve ~degraded =
      let data = Filestore.read_committed_any k.store fid ~pos ~len in
      let range = Byte_range.of_pos_len ~pos ~len in
      obs k
        (Obs.Replica_read
           {
             access =
               { owner = reader; pid; fid; range; data = Bytes.to_string data };
             version = Filestore.committed_version k.store fid;
             degraded;
           });
      Stats.incr (stats k)
        (if degraded then "replica.reads_degraded" else "replica.reads");
      Msg.R_data data
    in
    if Status.state k.repl vid = Status.Fresh then serve ~degraded:false
    else begin
      let primary = storage_site k.cl fid in
      if primary <> k.site && Transport.reachable k.cl.net k.site primary then
        Msg.R_retry
      else begin
        obs k (Obs.Failover { vid; fid });
        Stats.incr (stats k) "replica.failover_reads";
        serve ~degraded:true
      end
    end
  end

(* {1 Transaction plumbing} *)

let register_end_wait k txid =
  match Hashtbl.find_opt k.end_waits txid with
  | Some iv -> iv
  | None ->
    let iv = Engine.Ivar.create () in
    Hashtbl.replace k.end_waits txid iv;
    iv

(* If the top-level process is parked at the transaction endpoint and the
   last member has completed, release it into two-phase commit. *)
let txn_ready_check k (txn : Txn_state.txn) =
  if txn.Txn_state.live_members <= 1 && txn.Txn_state.phase = Txn_state.Active
  then begin
    match Hashtbl.find_opt k.end_waits txn.Txn_state.txid with
    | Some iv ->
      if Engine.try_fill k.engine iv Members_done then
        txn.Txn_state.phase <- Txn_state.Committing
    | None -> ()
  end

let registry_remove_txn cl txid =
  Hashtbl.remove cl.txn_tops txid;
  Hashtbl.remove cl.txn_members txid

let registry_add_member cl txid pid s =
  match Hashtbl.find_opt cl.txn_members txid with
  | Some r -> r := (pid, s) :: !r
  | None -> Hashtbl.replace cl.txn_members txid (ref [ (pid, s) ])

let register_transaction cl txid ~top ~site:s =
  Hashtbl.replace cl.txn_tops txid top;
  registry_add_member cl txid top s

let register_member = registry_add_member
let transaction_top cl txid = Hashtbl.find_opt cl.txn_tops txid

let encode_migration proc txn = Marshal.to_string { m_proc = proc; m_txn = txn } []

let registry_remove_member cl txid pid =
  match Hashtbl.find_opt cl.txn_members txid with
  | Some r -> r := List.filter (fun (p, _) -> not (Pid.equal p pid)) !r
  | None -> ()

let update_member_site cl txid pid s =
  match Hashtbl.find_opt cl.txn_members txid with
  | Some r ->
    r := (pid, s) :: List.filter (fun (p, _) -> not (Pid.equal p pid)) !r
  | None -> ()

let find_process cl ~src pid =
  let probe s =
    if Transport.reachable cl.net src s then
      match rpc cl ~src ~dst:s (Msg.Find_process { pid }) with
      | Msg.R_found true -> true
      | _ -> false
    else false
  in
  match location_hint cl pid with
  | Some s when probe s -> Some s
  | Some _ | None -> (
    match List.find_opt probe (Transport.sites cl.net) with
    | Some s ->
      note_location cl pid s;
      Some s
    | None -> None)

(* Cascade abort (§4.3): roll back the member's files, kill its fiber
   (unless spared), recurse to its children, and when the top-level
   process is reached finish the whole transaction. *)
let rec abort_member k ~txid ~pid ~spare =
  match Proc_table.find k.procs pid with
  | None -> ()
  | Some p ->
    let cl = k.cl in
    (* Children first — they may be local or remote. *)
    Pid.Set.iter
      (fun child ->
        match find_process cl ~src:k.site child with
        | Some s when s = k.site -> abort_member k ~txid ~pid:child ~spare
        | Some s ->
          ignore (rpc cl ~src:k.site ~dst:s (Msg.Abort_tree { txid; pid = child; spare }))
        | None -> ())
      p.Process.children;
    (* Roll back this member's modified records and release its locks. *)
    File_id.Set.iter
      (fun fid ->
        let dst = storage_site cl fid in
        ignore
          (rpc cl ~src:k.site ~dst
             (Msg.Abort_file { fid; owner = Owner.Transaction txid })))
      p.Process.file_list;
    let is_spared = match spare with Some s -> Pid.equal s pid | None -> false in
    let parked_top =
      p.Process.top_level
      &&
      match Hashtbl.find_opt k.end_waits txid with
      | Some iv -> Engine.try_fill k.engine iv Abort_requested
      | None -> false
    in
    if p.Process.top_level then begin
      (match Txn_state.find k.txns txid with
      | Some txn -> txn.Txn_state.phase <- Txn_state.Aborting
      | None -> ());
      Txn_state.remove k.txns txid;
      registry_remove_txn cl txid;
      obs k (Obs.Abort { txid })
    end
    else registry_remove_member cl txid pid;
    if (not is_spared) && not parked_top then begin
      (match fiber_of k pid with
      | Some h -> Engine.kill k.engine h
      | None -> ());
      p.Process.status <- Process.Exited;
      Proc_table.remove k.procs pid;
      forget_fiber k pid;
      Engine.fill k.engine (exit_ivar cl pid) ()
    end

let abort_transaction cl ?spare ?(reason = User) ~src txid =
  Stats.incr (Engine.stats cl.c_engine) "txn.abort_requests";
  count_abort cl reason;
  (* Clear any queued lock waits of the dying transaction first, so
     blocked member fibers unwind promptly. *)
  List.iter
    (fun table -> Lock_table.cancel_owner table (Owner.Transaction txid))
    (lock_tables cl);
  match Hashtbl.find_opt cl.txn_tops txid with
  | None -> ()
  | Some top -> (
    match find_process cl ~src top with
    | Some s ->
      ignore (rpc cl ~src ~dst:s (Msg.Abort_tree { txid; pid = top; spare }))
    | None ->
      (* The top-level process is gone (its site crashed): sweep every
         reachable storage site instead. *)
      List.iter
        (fun dst ->
          if Transport.reachable cl.net src dst then
            ignore (rpc cl ~src ~dst (Msg.Abort_phase2 { txid; files = [] })))
        (Transport.sites cl.net);
      registry_remove_txn cl txid;
      observe cl ~site:src (Obs.Abort { txid }))

let () =
  abort_transaction_ref :=
    fun cl ~reason ~src txid -> abort_transaction cl ~reason ~src txid

(* Local sweep used by Abort_phase2: roll back everything this site holds
   for the transaction, prepared or not. *)
let ss_abort2 k ~txid ~files =
  tr k Trace.Txn "phase2 abort %a" Txid.pp txid;
  leave_doubt k txid;
  let owner = Owner.Transaction txid in
  List.iter (ensure_authority_home k) files;
  let prepared_before = Participant.prepared_files k.participant txid in
  let local_fids =
    Hashtbl.fold
      (fun fid table acc ->
        if List.exists (fun (l : Lock_table.lock) -> Owner.equal l.Lock_table.owner owner)
             (Lock_table.locks table)
        then fid :: acc
        else acc)
      k.locks []
  in
  let fids = List.sort_uniq File_id.compare (files @ local_fids) in
  Participant.abort k.participant ~txid;
  with_span k ~cat:"lock" "lock.release" @@ fun () ->
  List.iter
    (fun fid ->
      if Filestore.is_open k.store fid then Filestore.abort k.store fid ~owner;
      match lock_table k fid with
      | Some table ->
        Lock_table.cancel_owner table owner;
        Lock_table.release_owner table owner
      | None -> ())
    fids;
  (* Under dynamic placement the retained locks may live at a migrated-to
     owner: chase the role and release there too. *)
  if sharded k.cl then
    List.iter
      (fun fid ->
        if
          (not (Hashtbl.mem k.shard_owned fid))
          || Hashtbl.mem k.shard_migrating fid
        then shard_release k fid ~owner ~cancel:true)
      (List.sort_uniq File_id.compare (files @ prepared_before))

let ss_commit2 k ~txid ~files =
  tr k Trace.Txn "phase2 commit %a" Txid.pp txid;
  leave_doubt k txid;
  let owner = Owner.Transaction txid in
  List.iter (ensure_authority_home k) files;
  let prepared = Participant.prepared_files k.participant txid in
  let intentions = Participant.prepared_intentions k.participant txid in
  with_span k ~cat:"txn" "phase2.apply" (fun () ->
      Participant.commit k.participant ~txid);
  (* Push each file's new committed version to its secondaries before
     releasing the locks: a lock-covered read at a secondary is then
     guaranteed one-copy fresh. The intentions name exactly the pages
     this commit touched, so the propagated delta stays small. With RPC
     batching on, the per-file propagations run concurrently so one
     transaction's deltas for the same secondary share a batched message;
     either way all must land before the locks release. *)
  let propagate (it : Intentions.t) () =
    propagate_replicas k ~indices:(Intentions.page_indices it) it.Intentions.fid
  in
  if k.cl.cfg.Config.rpc_batch_window_us > 0 then
    par_iter k ~name:"repl-commit2" (List.map propagate intentions)
  else List.iter (fun it -> propagate it ()) intentions;
  with_span k ~cat:"lock" "lock.release" @@ fun () ->
  List.iter
    (fun fid ->
      match lock_table k fid with
      | Some table -> Lock_table.release_owner table owner
      | None -> ())
    (List.sort_uniq File_id.compare (files @ prepared));
  if sharded k.cl then
    List.iter
      (fun fid ->
        if
          (not (Hashtbl.mem k.shard_owned fid))
          || Hashtbl.mem k.shard_migrating fid
        then shard_release k fid ~owner ~cancel:false)
      (List.sort_uniq File_id.compare (files @ prepared))

(* {1 Paxos Commit (Gray & Lamport)}

   One consensus instance per participant; the transaction commits iff
   every instance fixes a Prepared vote at an f+1 quorum of the 2f+1
   acceptor sites (see lib/pcommit for the decision rule and its safety
   argument). The coordinator's log is still written — it remains the
   fast path for outcome queries — but the acceptor set is the durable,
   replicated source of truth: after a coordinator crash any participant
   can learn the decision from a quorum instead of blocking. *)

(* Phase 2a, run by a participant inside its Prepare handler: offer the
   local vote to every acceptor and confirm "prepared" to the coordinator
   only once f+1 acceptors registered the Prepared vote. The broadcast
   goes through the batched hot path so acceptor messages coalesce under
   an RPC batch window exactly like prepares and replica deltas. *)
let cast_paxos_vote k ~txid ~coordinator_site ~f ~participants vote =
  let cl = k.cl in
  let accs = acceptor_sites cl ~coordinator:coordinator_site f in
  Stats.incr (stats k) "pcommit.votes_cast";
  with_span k ~cat:"txn" "pcommit.vote" @@ fun () ->
  let registered = ref 0 in
  let offer a () =
    if Transport.reachable cl.net k.site a then
      match
        rpc_hot cl ~src:k.site ~dst:a
          (Msg.Vote_2a { txid; participant = k.site; vote; ballot = 0; participants })
      with
      | Msg.R_vote_2b v when v = vote -> incr registered
      | _ -> ()
  in
  par_iter k ~name:"pcommit-vote" (List.map offer accs);
  vote && !registered >= Pcommit.quorum ~f

(* Read the transaction outcome from the acceptor set. Needs a quorum of
   replies; an instance with neither value at quorum after the first
   round is closed by offering Aborted at ballot 1 (closure can only
   block an unconfirmed Prepared vote from ever reaching quorum — the
   participant then reported "not prepared" and no commit exists to
   contradict). [hint] seeds the participant set when the caller knows it
   (the coordinator's own log record); otherwise it is learned from any
   registered vote. Returns [`Unknown] only when too few acceptors stay
   reachable to determine the outcome. *)
let pcommit_read_decision k ~txid ~f ~hint =
  let cl = k.cl in
  let coordinator = Txid.site txid in
  let accs = acceptor_sites cl ~coordinator f in
  let q = Pcommit.quorum ~f in
  let reachable_accs () =
    List.filter (fun a -> Transport.reachable cl.net k.site a) accs
  in
  (* The acceptor round trips are independent: issue them concurrently
     through the batched hot path, so same-acceptor queries (ours across
     the round, or several resolvers') coalesce into one [Msg.Batch]
     envelope under an RPC batch window. Results keep acceptor order. *)
  let read () =
    let accs = reachable_accs () in
    let results = Array.make (List.length accs) None in
    par_iter k ~name:"pcommit-query"
      (List.mapi
         (fun i a () ->
           match rpc_hot cl ~src:k.site ~dst:a (Msg.Decision_query { txid }) with
           | Msg.R_decision { participants; votes } ->
             results.(i) <- Some (participants, votes)
           | _ -> ())
         accs);
    List.filter_map Fun.id (Array.to_list results)
  in
  let close participants instances =
    List.iter
      (fun p ->
        List.iter
          (fun a ->
            ignore
              (rpc cl ~src:k.site ~dst:a
                 (Msg.Vote_2a
                    { txid; participant = p; vote = false; ballot = 1; participants })))
          (reachable_accs ()))
      instances
  in
  let rec go tries =
    if tries > 30 then begin
      Stats.incr (stats k) "pcommit.unresolved";
      `Unknown
    end
    else begin
      let replies = read () in
      if List.length replies < q then begin
        Engine.sleep 2_000_000;
        go (tries + 1)
      end
      else begin
        let participants =
          List.sort_uniq compare (hint @ List.concat_map fst replies)
        in
        match Pcommit.decide ~f ~participants ~votes:(List.map snd replies) with
        | Pcommit.Commit -> `Commit
        | Pcommit.Abort -> `Abort
        | Pcommit.Undecided open_instances ->
          (* Nothing registered anywhere and no hint: the only instance we
             know exists is our own. Closing it is still decisive — once
             Aborted holds a quorum there, no commit can ever form. *)
          let targets =
            if open_instances = [] then [ k.site ] else open_instances
          in
          if tries >= 1 then close participants targets;
          Engine.sleep 1_000_000;
          go (tries + 1)
      end
    end
  in
  go 0

(* Acceptor-state garbage collection: once every participant has acked
   phase 2 the registrations for this transaction can never be consulted
   again (a duplicate query is answered from the coordinator log's
   presumed-abort rule), so tell the acceptors to drop them and free
   their log records. Best-effort — an unreachable acceptor just keeps
   the garbage until its own log recycles. *)
let pcommit_forget k ~txid =
  match paxos_f k.cl with
  | None -> ()
  | Some f ->
    let cl = k.cl in
    Stats.incr (stats k) "pcommit.forget_sent";
    let accs = acceptor_sites cl ~coordinator:(Txid.site txid) f in
    par_iter k ~name:"pcommit-forget"
      (List.map
         (fun a () ->
           if Transport.reachable cl.net k.site a then
             ignore (rpc_hot cl ~src:k.site ~dst:a (Msg.Acceptor_forget { txid })))
         accs)

(* Participant-side resolver: a prepared transaction whose coordinator is
   unreachable (or was unreachable at our recovery) learns its outcome
   from the acceptors and applies phase 2 locally — the non-blocking
   property 2PC lacks. Single-flight per txid; emits the outcome event
   itself because the coordinator may have died before announcing it. *)
let pcommit_resolve k ~txid ~f =
  let cl = k.cl in
  if not (Hashtbl.mem k.resolving txid) then begin
    Hashtbl.replace k.resolving txid ();
    Fun.protect ~finally:(fun () -> Hashtbl.remove k.resolving txid) @@ fun () ->
    enter_doubt k txid;
    match pcommit_read_decision k ~txid ~f ~hint:[] with
    | `Commit ->
      if Participant.is_prepared k.participant txid then begin
        Stats.incr (stats k) "pcommit.resolved_commit";
        tr k Trace.Txn "pcommit resolve %a -> commit" Txid.pp txid;
        obs k (Obs.Commit { txid });
        ss_commit2 k ~txid ~files:[]
      end
    | `Abort ->
      if Participant.is_prepared k.participant txid then begin
        Stats.incr (stats k) "pcommit.resolved_abort";
        tr k Trace.Txn "pcommit resolve %a -> abort" Txid.pp txid;
        count_abort cl Coordinator_lost;
        obs k (Obs.Abort { txid });
        ss_abort2 k ~txid ~files:[]
      end
    | `Unknown ->
      (* Leave the prepared state (and the gauge) in place: the liveness
         checker reports us as blocked, which is exactly what an
         unlearnable decision means. *)
      tr k Trace.Txn "pcommit resolve %a -> unknown (giving up)" Txid.pp txid
  end

(* Two-phase commit, driven from the coordinator site (§4.2). *)
let commit_transaction k (txn : Txn_state.txn) =
  let cl = k.cl in
  let txid = txn.Txn_state.txid in
  let t0 = Engine.now k.engine in
  txn.Txn_state.phase <- Txn_state.Committing;
  let files =
    List.sort_uniq
      (fun (a, _) (b, _) -> File_id.compare a b)
      (List.map (fun (fid, _) -> (fid, storage_site cl fid)) txn.Txn_state.file_list)
  in
  let outcome =
    if files = [] then begin
      obs k (Obs.Commit { txid });
      Committed
    end
    else
      with_span k ~cat:"txn" "2pc"
        ~args:[ ("txid", Fmt.str "%a" Txid.pp txid) ]
      @@ fun () ->
      let by_site =
        List.fold_left
          (fun acc (fid, s) ->
            match List.assoc_opt s acc with
            | Some r ->
              r := fid :: !r;
              acc
            | None -> (s, ref [ fid ]) :: acc)
          [] files
        |> List.map (fun (s, r) -> (s, !r))
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      (* Step 1 (Figure 5): the coordinator log, status unknown. *)
      tr k Trace.Txn "2pc begin %a (%d files)" Txid.pp txid (List.length files);
      with_span k ~cat:"txn" "coord_log.write" (fun () ->
          Coord_log.begin_commit k.coord ~txid ~files;
          cl.hooks.on_coord_log_written txid);
      (* Steps 2-3 happen at the participants, in parallel. The prepare
         fibers inherit the 2pc span context captured here, so each
         participant's [prepare] span grafts into this transaction's
         tree. *)
      let pctx = wire_ctx cl in
      (* Under Paxos Commit each participant needs the full participant
         set: it is recorded with every acceptor vote so a recovering
         party that reads any single vote learns which instances exist. *)
      let participants =
        match paxos_f cl with
        | None -> []
        | Some _ -> List.map fst by_site
      in
      let votes =
        List.map
          (fun (s, fs) ->
            let iv = Engine.Ivar.create () in
            ignore
              (Engine.spawn ~name:"2pc-prepare" ~site:k.site k.engine (fun () ->
                   with_span k ?parent:pctx ~cat:"txn" "2pc.prepare"
                     ~args:[ ("participant", string_of_int s) ]
                   @@ fun () ->
                   let vote =
                     match
                       rpc_hot cl ~src:k.site ~dst:s
                         (Msg.Prepare
                            {
                              txid;
                              coordinator_site = k.site;
                              files = fs;
                              participants;
                            })
                     with
                     | Msg.R_vote v -> v
                     | _ -> false
                   in
                   ignore (Engine.try_fill k.engine iv vote)));
            iv)
          by_site
      in
      (* Decision phase, timed separately ([commit.decide]) so latency to
         the decision point is directly comparable across protocols. *)
      let decision =
        with_span k ~cat:"txn" "commit.decide" @@ fun () ->
        let all_prepared =
          with_span k ~cat:"txn" "2pc.votes" (fun () ->
              List.for_all (fun iv -> Engine.await iv) votes)
        in
        (* [Some committed] is the decision; [None] means the outcome is
           not determinable right now (Paxos only: too few acceptors
           reachable). Under Paxos Commit a failed or missing vote does
           not by itself abort — the participant's Prepared vote may have
           reached an acceptor quorum with only the confirmation lost, so
           the decision must come from the acceptor set. *)
        let decision =
          if all_prepared then Some true
          else
            match paxos_f cl with
            | None -> Some false
            | Some f -> (
              match
                pcommit_read_decision k ~txid ~f ~hint:(List.map fst by_site)
              with
              | `Commit -> Some true
              | `Abort -> Some false
              | `Unknown ->
                Stats.incr (stats k) "pcommit.coord_unresolved";
                None)
        in
        (match decision with
        | None -> ()
        | Some committed ->
          if not committed then count_abort cl Degraded_vote;
          (* Step 4: writing the mark is the commit (or abort) point. *)
          with_span k ~cat:"txn" "commit.force"
            ~args:[ ("status", if committed then "committed" else "aborted") ]
            (fun () ->
              Coord_log.decide k.coord ~txid
                (if committed then Log_record.Committed else Log_record.Aborted));
          Stats.hist (stats k) "commit.decide_us" (Engine.now k.engine - t0));
        decision
      in
      match decision with
      | None ->
        (* The coordinator log keeps the Unknown record; participants stay
           prepared and will learn the outcome from the acceptors (or our
           own recovery will finish the job). The client sees an abort —
           it must not assume durability that was never established. *)
        tr k Trace.Txn "2pc undecided %a (acceptor quorum unreachable)" Txid.pp
          txid;
        Aborted
      | Some all_prepared ->
      let status : Log_record.status =
        if all_prepared then Log_record.Committed else Log_record.Aborted
      in
      tr k Trace.Txn "2pc decide %a %a" Txid.pp txid Log_record.pp_status status;
      (* The outcome event must be recorded at the decision point itself,
         before any injected crash, or the checker would misclassify a
         durably committed transaction as unresolved. *)
      obs k (if all_prepared then Obs.Commit { txid } else Obs.Abort { txid });
      cl.hooks.on_decided txid status;
      let p2ctx = wire_ctx cl in
      let phase2 () =
        with_span k ?parent:p2ctx ~cat:"txn" "2pc.phase2" @@ fun () ->
        let all_acked = ref true in
        List.iter
          (fun (s, fs) ->
            let msg =
              if all_prepared then Msg.Commit_phase2 { txid; files = fs }
              else Msg.Abort_phase2 { txid; files = fs }
            in
            match
              rpc_retry_batched_p cl cl.cfg.Config.retries.Config.phase2
                ~retry_if:(fun r -> r <> Msg.R_ok)
                ~src:k.site ~dst:s (envelope cl msg)
            with
            | Ok Msg.R_ok -> ()
            | Ok _ | Error _ -> all_acked := false)
          by_site;
        (* The coordinator log is retained until commit/abort processing
           has completed everywhere (§4.4). *)
        if !all_acked then begin
          Coord_log.finished k.coord ~txid;
          pcommit_forget k ~txid
        end
      in
      if cl.cfg.Config.async_phase2 then
        ignore (Engine.spawn ~name:"2pc-phase2" ~site:k.site k.engine phase2)
      else phase2 ();
      if all_prepared then Committed else Aborted
  in
  txn.Txn_state.phase <- Txn_state.Finished;
  Txn_state.remove k.txns txid;
  Hashtbl.remove k.end_waits txid;
  registry_remove_txn cl txid;
  Stats.hist (stats k) "txn.commit_us" (Engine.now k.engine - t0);
  Stats.incr (stats k)
    (match outcome with Committed -> "txn.committed" | Aborted -> "txn.aborted");
  outcome

(* Member-process exit (§4.1): the child's file-list merges into the
   top-level process's transaction record, with retry when the merge races
   a migration. *)
let member_exit cl ~src (p : Process.t) =
  (match p.Process.txid with
  | Some txid when not p.Process.top_level ->
    let top =
      match Hashtbl.find_opt cl.txn_tops txid with
      | Some top -> Some top
      | None -> None
    in
    (match top with
    | None -> ()
    | Some top ->
      let files =
        File_id.Set.elements p.Process.file_list
        |> List.map (fun fid -> (fid, storage_site cl fid))
      in
      (* The merge is NOT idempotent (a duplicate double-counts the
         member's files), and this loop retries across lost replies — so
         under the chaos layer every attempt must carry the SAME request
         id: allocate it once, out here, and rebuild only the envelope.
         A destination that already executed the merge then answers the
         retry from its reply cache instead of merging again. *)
      let rid =
        match cl.cfg.Config.net_faults with
        | Some _ -> Some (rid_alloc cl.ks.(src))
        | None -> None
      in
      let rec send_merge tries =
        if tries > 50 then ()
        else begin
          let dst =
            match location_hint cl top with
            | Some s when Transport.site_up cl.net s -> Some s
            | _ -> find_process cl ~src top
          in
          match dst with
          | None -> ()
          | Some dst -> (
            let env =
              envelope cl ?rid (Msg.Merge_file_list { top; txid; files })
            in
            let reply =
              match cl.cfg.Config.net_faults with
              | Some _ when src <> dst -> (
                match
                  rpc_retry_p cl cl.cfg.Config.retries.Config.rpc ~src ~dst env
                with
                | Ok r -> r
                | Error e -> rpc_error e)
              | Some _ | None -> rpc_env cl ~src ~dst env
            in
            match reply with
            | Msg.R_ok -> ()
            | Msg.R_retry ->
              Stats.incr (Engine.stats cl.c_engine) "merge.retries";
              Engine.sleep 2_000;
              Hashtbl.remove cl.locations top;
              send_merge (tries + 1)
            | _ ->
              Engine.sleep 2_000;
              send_merge (tries + 1))
        end
      in
      send_merge 0;
      Option.iter (rid_done cl.ks.(src)) rid);
    registry_remove_member cl txid p.Process.pid
  | Some _ | None -> ());
  (* Channel cleanup: release process-owned locks, commit conventional
     (non-transaction) modifications — the base system's default atomic
     file update on close — and drop open references. *)
  let fids =
    List.sort_uniq File_id.compare (List.map (fun c -> c.Process.fid) p.Process.channels)
  in
  let by_site =
    List.fold_left
      (fun acc fid ->
        let s = storage_site cl fid in
        match List.assoc_opt s acc with
        | Some r ->
          r := fid :: !r;
          acc
        | None -> (s, ref [ fid ]) :: acc)
      [] fids
  in
  List.iter
    (fun (s, r) ->
      ignore
        (rpc cl ~src ~dst:s (Msg.Proc_exit_cleanup { pid = p.Process.pid; fids = !r })))
    by_site

let ss_proc_exit_cleanup k ~pid ~fids =
  let owner = Owner.Process pid in
  List.iter
    (fun fid ->
      (match lock_table k fid with
      | Some table -> Lock_table.release_process table pid
      | None -> ());
      if
        sharded k.cl
        && ((not (Hashtbl.mem k.shard_owned fid))
           || Hashtbl.mem k.shard_migrating fid)
      then shard_release k fid ~owner ~cancel:true;
      if Filestore.is_open k.store fid then begin
        if Filestore.modified_by k.store fid owner <> [] then begin
          match ensure_writable k fid with
          | () ->
            let it = Filestore.commit k.store fid ~owner in
            propagate_replicas k ~indices:(Intentions.page_indices it) fid;
            obs k (Obs.File_commit { owner; fid })
          | exception Denied _ ->
            (* Degraded copy: the exiting process's uncommitted bytes
               cannot become a new version — discard them. *)
            Filestore.abort k.store fid ~owner;
            obs k (Obs.File_abort { owner; fid })
        end;
        Filestore.close_file k.store fid
      end)
    fids

(* {1 The live health plane (locus_health)}

   Three pieces, same zero-overhead discipline as [Obs]/[Otrace]:

   - [health_report] builds the structured per-site report the
     [Msg.Health_query] endpoint answers — pure state reads, available
     whether or not the sampler is armed;
   - [health_arm] (called from [make] when [Config.health_window_us] > 0)
     registers the windowed series and schedules the self-rescheduling
     tick closure. Ticks run OUTSIDE any fiber via [Engine.schedule]: a
     looping sampler fiber would keep the event queue alive forever and
     [Engine.run] would never drain. The tick stops rescheduling once it
     is the only pending event source, letting the run quiesce;
   - [health_tick] closes a window: samples every series, then evaluates
     the watchdog rules (per site + cluster scope), emitting rising-edge
     [Obs.Alarm] events and [health.alarm.*] counters. *)

let reply_cache_capacity = 1024

let dedup_cached k =
  Hashtbl.fold
    (fun _ slot n -> match slot with Cached _ -> n + 1 | Running _ -> n)
    k.reply_cache 0

(* (count, max age in µs) of this kernel's in-doubt transactions. *)
let health_in_doubt k =
  let now = Engine.now k.engine in
  Hashtbl.fold
    (fun _ entered (n, oldest) -> (n + 1, max oldest (now - entered)))
    k.doubted (0, 0)

let health_hot_cells k =
  Hashtbl.fold
    (fun fid tbl acc ->
      let w = Lock_table.waiting tbl in
      let l = Lock_table.lock_count tbl in
      if w > 0 || l > 0 then (fid, w, l) :: acc else acc)
    k.locks []
  |> List.sort (fun (fa, wa, _) (fb, wb, _) ->
         match Int.compare wb wa with 0 -> compare fa fb | c -> c)
  |> List.filteri (fun i _ -> i < 3)
  |> List.map (fun (fid, w, l) ->
         {
           Hreport.hc_fid = Fmt.str "%a" File_id.pp fid;
           hc_waiters = w;
           hc_locks = l;
         })

let health_report k =
  let in_doubt, max_age = health_in_doubt k in
  let locks_held, lock_waiters =
    Hashtbl.fold
      (fun _ tbl (h, w) ->
        (h + Lock_table.lock_count tbl, w + Lock_table.waiting tbl))
      k.locks (0, 0)
  in
  let wal_bytes =
    List.fold_left
      (fun acc vol -> acc + (Volume.io_log_writes vol * Volume.page_size vol))
      0
      (Filestore.volumes k.store)
  in
  {
    Hreport.hs_site = k.site;
    hs_at_us = Engine.now k.engine;
    hs_in_doubt = in_doubt;
    hs_in_doubt_max_age_us = max_age;
    hs_active_txns = List.length (Txn_state.active k.txns);
    hs_lock_tables = Hashtbl.length k.locks;
    hs_locks_held = locks_held;
    hs_lock_waiters = lock_waiters;
    hs_hot_cells = health_hot_cells k;
    hs_wal_bytes = wal_bytes;
    hs_dedup_entries = dedup_cached k;
    hs_dedup_capacity = reply_cache_capacity;
    hs_degraded_copies = List.length (Status.degraded k.repl);
    hs_shards_owned = Hashtbl.length k.shard_owned;
  }

(* Monitor-side fan-out. Must run inside a fiber (it blocks on RPC
   replies); the transport's RPC timeout bounds every leg, so a
   partitioned or crashed site reads as [Unreachable], never a hang. *)
let health_poll cl ~src ~dst =
  if src = dst then Hreport.Healthy (health_report cl.ks.(dst))
  else
    match rpc cl ~src ~dst Msg.Health_query with
    | Msg.R_health s -> Hreport.Healthy s
    | _ -> Hreport.Unreachable { u_site = dst }

let health_poll_all cl ~src =
  List.init cl.cfg.Config.n_sites (fun dst -> health_poll cl ~src ~dst)

let health_tick cl hp =
  let e = cl.c_engine in
  let now = Engine.now e in
  Hsampler.tick hp.hp_sampler ~now_us:now;
  let st = Engine.stats e in
  let last name =
    Option.value (Hsampler.last_value hp.hp_sampler name) ~default:0
  in
  let raise_alarm (a : Hrules.alarm) =
    Stats.incr st ("health.alarm." ^ a.Hrules.al_name);
    observe cl
      ~site:(max 0 a.Hrules.al_site)
      (Obs.Alarm { name = a.Hrules.al_name; detail = a.Hrules.al_detail });
    hp.hp_alarms <- a :: hp.hp_alarms
  in
  (* Cluster-scope rules read this window's series values... *)
  let ci =
    {
      (Hrules.zero_input ~site:(-1) ~now_us:now) with
      Hrules.in_lock_wait_p99_us = last "lock_wait_p99_us";
      in_retries = last "retries";
      in_migrations = last "migrations";
    }
  in
  List.iter raise_alarm (Hrules.evaluate hp.hp_cluster_rules ci);
  (* ... and per-site rules read the live kernel state directly. *)
  Array.iter
    (fun k ->
      if k.alive then begin
        let in_doubt, max_age = health_in_doubt k in
        let i =
          {
            (Hrules.zero_input ~site:k.site ~now_us:now) with
            Hrules.in_in_doubt = in_doubt;
            in_in_doubt_max_age_us = max_age;
            in_dedup_entries = dedup_cached k;
            in_dedup_capacity = reply_cache_capacity;
            in_degraded_copies = List.length (Status.degraded k.repl);
          }
        in
        List.iter raise_alarm (Hrules.evaluate hp.hp_site_rules.(k.site) i)
      end)
    cl.ks

let health_arm cl =
  let window_us = cl.cfg.Config.health_window_us in
  if window_us > 0 then begin
    let e = cl.c_engine in
    let st = Engine.stats e in
    let sp =
      Hsampler.create ~keep:cl.cfg.Config.health_keep ~window_us ()
    in
    (* Intern the counter cells once: these sources run every sampler
       window on every site, and [Stats.get]'s string hash + probe per
       read adds up at high window rates. *)
    let counter name =
      let r = Stats.counter st name in
      Hsampler.Counter (fun () -> !r)
    in
    Hsampler.register sp "commits" (counter "txn.committed");
    Hsampler.register sp "aborts" (counter "txn.aborted");
    Hsampler.register sp "msgs" (counter "net.msg");
    Hsampler.register sp "retries" (counter "net.retries");
    Hsampler.register sp "net_faults"
      (let drop = Stats.counter st "net.drop"
       and dup = Stats.counter st "net.dup"
       and reorder = Stats.counter st "net.reorder" in
       Hsampler.Counter (fun () -> !drop + !dup + !reorder));
    Hsampler.register sp "migrations" (counter "shard.migrations");
    Hsampler.register sp "in_doubt"
      (let r = Stats.counter st "txn.in_doubt" in
       Hsampler.Gauge (fun () -> !r));
    Hsampler.register sp "lock_waiters"
      (Hsampler.Gauge
         (fun () ->
           Array.fold_left
             (fun acc k ->
               if k.alive then
                 Hashtbl.fold
                   (fun _ tbl a -> a + Lock_table.waiting tbl)
                   k.locks acc
               else acc)
             0 cl.ks));
    Hsampler.register sp "dedup_entries"
      (Hsampler.Gauge
         (fun () ->
           Array.fold_left
             (fun acc k -> if k.alive then acc + dedup_cached k else acc)
             0 cl.ks));
    Hsampler.register sp "lock_wait_p99_us"
      (Hsampler.Hist_p99
         (fun () ->
           match Stats.histogram st "lock.wait_us" with
           | Some h -> Stats.Hist.snapshot h
           | None -> Stats.Hist.empty_snap));
    for s = 0 to cl.cfg.Config.n_sites - 1 do
      Hsampler.register sp
        (Printf.sprintf "site%d.in_doubt" s)
        (Hsampler.Gauge (fun () -> Hashtbl.length cl.ks.(s).doubted))
    done;
    let thresholds = cl.cfg.Config.health_thresholds in
    let hp =
      {
        hp_sampler = sp;
        hp_site_rules =
          Array.init cl.cfg.Config.n_sites (fun _ ->
              Hrules.create ~thresholds ());
        hp_cluster_rules = Hrules.create ~thresholds ();
        hp_alarms = [];
      }
    in
    cl.health <- Some hp;
    let rec tick () =
      health_tick cl hp;
      (* Our own event has already been popped: anything still pending is
         real work, so keep sampling; an otherwise-empty queue means the
         run is quiescing and this was the final window. *)
      if Engine.pending_events e > 0 then Engine.schedule ~delay:window_us e tick
    in
    Engine.schedule ~delay:window_us e tick
  end

let health_alarms cl =
  match cl.health with None -> [] | Some hp -> List.rev hp.hp_alarms

let health_series cl =
  match cl.health with
  | None -> []
  | Some hp -> Hsampler.series hp.hp_sampler

let health_windows cl =
  match cl.health with None -> 0 | Some hp -> Hsampler.windows hp.hp_sampler

(* Currently-firing rule names per scope (-1 = cluster), for `locusctl
   top`'s active-alarm panel. *)
let health_active cl =
  match cl.health with
  | None -> []
  | Some hp ->
    let cluster = ((-1), Hrules.active hp.hp_cluster_rules) in
    let sites =
      Array.to_list
        (Array.mapi (fun s r -> (s, Hrules.active r)) hp.hp_site_rules)
    in
    List.filter (fun (_, names) -> names <> []) (cluster :: sites)

(* {1 The kernel message handler} *)

let rec handle_msg k ~src msg =
  let open Msg in
  if not k.alive then R_err "site down"
  else begin
    tr k Trace.Net "<- site%d: %a" src Msg.pp msg;
    try
      match msg with
      | Ping -> R_ok
      | Health_query -> R_health (health_report k)
      | Open { fid } ->
        Filestore.open_file k.store fid;
        ignore (ensure_table k fid);
        R_ok
      | Close { fid; owner; commit_on_close } ->
        if
          commit_on_close
          && Filestore.is_open k.store fid
          && Filestore.modified_by k.store fid owner <> []
        then begin
          ensure_writable k fid;
          let it = Filestore.commit k.store fid ~owner in
          propagate_replicas k ~indices:(Intentions.page_indices it) fid;
          obs k (Obs.File_commit { owner; fid })
        end;
        Filestore.close_file k.store fid;
        R_ok
      | Read { fid; reader; pid; pos; len } ->
        R_data (ss_read k ~fid ~reader ~pid ~pos ~len)
      | Read_locked { fid; reader; pid; pos; len } -> (
        (* The §3.3 implicit Shared lock that [ss_read] acquires for a
           transaction reader is retained until commit — confirming it
           in the reply lets the client cache the lock, making the
           lock-then-read pair one round trip. A conventional process
           gets plain data: its momentary lock is already gone and must
           not be cached. *)
        match reader with
        | Owner.Transaction _ ->
          let data = ss_read k ~fid ~reader ~pid ~pos ~len in
          Stats.incr (stats k) "lock.piggyback";
          R_data_locked data
        | Owner.Process _ -> R_data (ss_read k ~fid ~reader ~pid ~pos ~len))
      | Write { fid; owner; pid; pos; data } ->
        ss_write k ~fid ~owner ~pid ~pos ~data;
        R_ok
      | Lock { fid; owner; pid; mode; range; non_transaction; wait }
        when sharded k.cl -> (
        match shard_route k fid with
        | `Retry -> R_retry
        | `Redirect d ->
          Stats.incr (stats k) "shard.redirects";
          R_redirect d
        | `Here -> (
          (* The streak policy may hand the role to [src] right here; the
             requester then retries against its own site. *)
          maybe_shard_migrate k fid ~src;
          if not (Hashtbl.mem k.shard_owned fid) then
            match Hashtbl.find_opt k.shard_hints fid with
            | Some d -> R_redirect d
            | None -> R_retry
          else
            match
              grant_lock k ~fid ~owner ~pid ~mode ~range ~non_transaction ~wait
            with
            | `Granted ->
              Stats.incr (stats k)
                (if src = k.site then "shard.local_grants"
                 else "shard.remote_grants");
              R_granted
            | `Conflict owners -> R_conflict owners
            | `Cancelled -> R_err "lock cancelled"
            | `Timeout -> R_err "lock timeout"))
      | Lock { fid; owner; pid; mode; range; non_transaction; wait } -> (
        match lock_route k fid with
        | `Redirect d -> R_redirect d
        | `Here ->
        maybe_delegate k fid ~src;
        (* Delegation may have just moved the table away. *)
        match
          (match lock_route k fid with
          | `Redirect d -> `Moved d
          | `Here ->
            `R (grant_lock k ~fid ~owner ~pid ~mode ~range ~non_transaction ~wait))
        with
        | `Moved d -> R_redirect d
        | `R r ->
        match r with
        | `Granted ->
          if k.cl.cfg.Config.prefetch && src <> k.site then begin
            (* §5.2: piggyback the locked range's data on the grant, in
               anticipation of its use at the requesting site. *)
            Stats.incr (stats k) "prefetch.grants";
            let data =
              Filestore.read k.store fid ~pos:(Byte_range.lo range)
                ~len:(Byte_range.len range)
            in
            R_granted_data data
          end
          else R_granted
        | `Conflict owners -> R_conflict owners
        | `Cancelled -> R_err "lock cancelled"
        | `Timeout -> R_err "lock timeout")
      | Lock_append { fid; owner; pid; len; mode; non_transaction } ->
        R_granted_at (ss_lock_append k ~fid ~owner ~pid ~len ~mode ~non_transaction)
      | Unlock { fid; owner; pid; range } when sharded k.cl -> (
        match shard_route k fid with
        | `Retry -> R_retry
        | `Redirect d ->
          Stats.incr (stats k) "shard.redirects";
          R_redirect d
        | `Here ->
          (match lock_table k fid with
          | Some table ->
            Lock_table.unlock table ~owner ~pid ~range;
            (match owner with
            | Owner.Transaction _ ->
              Lock_table.unlock table ~owner:(Owner.Process pid) ~pid ~range
            | Owner.Process _ -> ());
            obs k (Obs.Unlock { owner; pid; fid; range })
          | None -> ());
          R_ok)
      | Unlock { fid; owner; pid; range } -> (
        match lock_route k fid with
        | `Redirect d -> R_redirect d
        | `Here ->
        (match lock_table k fid with
        | Some table ->
          Lock_table.unlock table ~owner ~pid ~range;
          (* Locks the process acquired before BeginTrans were never
             converted to transaction locks (§3.4): an unlock inside the
             transaction releases them for real. *)
          (match owner with
          | Owner.Transaction _ ->
            Lock_table.unlock table ~owner:(Owner.Process pid) ~pid ~range
          | Owner.Process _ -> ());
          obs k (Obs.Unlock { owner; pid; fid; range })
        | None -> ());
        R_ok)
      | Commit_file { fid; owner } ->
        if Filestore.is_open k.store fid && Filestore.modified_by k.store fid owner <> []
        then begin
          ensure_writable k fid;
          let it = Filestore.commit k.store fid ~owner in
          propagate_replicas k ~indices:(Intentions.page_indices it) fid;
          obs k (Obs.File_commit { owner; fid })
        end;
        R_ok
      | Abort_file { fid; owner } ->
        ensure_authority_home k fid;
        if Filestore.is_open k.store fid then begin
          Filestore.abort k.store fid ~owner;
          obs k (Obs.File_abort { owner; fid })
        end;
        (match lock_table k fid with
        | Some table ->
          Lock_table.cancel_owner table owner;
          Lock_table.release_owner table owner
        | None -> ());
        if
          sharded k.cl
          && ((not (Hashtbl.mem k.shard_owned fid))
             || Hashtbl.mem k.shard_migrating fid)
        then shard_release k fid ~owner ~cancel:true;
        R_ok
      | File_size { fid } -> R_int (Filestore.size k.store fid)
      | Create_file { vid } ->
        ensure_writable_vid k vid;
        let fid = Filestore.create_file k.store ~vid in
        (* Seed the secondaries with the (empty) version-1 file so later
           per-commit deltas apply without a gap. *)
        propagate_replicas k ~initial:true fid;
        R_fid fid
      | Member_join { top; txid } -> (
        match Proc_table.find k.procs top with
        | Some p when p.Process.status <> Process.In_transit -> (
          match Txn_state.find k.txns txid with
          | Some _ ->
            Txn_state.member_joined k.txns txid;
            R_ok
          | None -> R_retry)
        | Some _ | None -> R_retry)
      | Merge_file_list { top; txid; files } -> (
        match Proc_table.find k.procs top with
        | Some p when p.Process.status <> Process.In_transit -> (
          match Txn_state.find k.txns txid with
          | Some txn ->
            Txn_state.merge_files txn files;
            Txn_state.member_exited k.txns txid;
            txn_ready_check k txn;
            R_ok
          | None -> R_retry)
        | Some _ | None ->
          (* Not here, or mid-migration: bounce for retry (§4.1). *)
          R_retry)
      | Proc_arrive { payload } ->
        let m : migration = Marshal.from_string payload 0 in
        tr k Trace.Proc "process %a arrives" Pid.pp m.m_proc.Process.pid;
        m.m_proc.Process.status <- Process.Running;
        m.m_proc.Process.site <- k.site;
        Proc_table.insert k.procs m.m_proc;
        (match m.m_txn with Some txn -> Txn_state.adopt k.txns txn | None -> ());
        R_ok
      | Proc_exit_cleanup { pid; fids } ->
        ss_proc_exit_cleanup k ~pid ~fids;
        R_ok
      | Prepare { txid; coordinator_site; files; participants } ->
        Stats.incr (stats k) "2pc.prepares";
        (* The lock state must be home before we log it with the data. *)
        List.iter (recall_locks k) files;
        let vote =
          try
            (* A degraded primary cannot version the updates correctly
               yet: vote no rather than risk a divergent history. *)
            List.iter (ensure_writable k) files;
            (* Steps 2-3 (Figure 5): flush the dirty pages and force the
               prepare log — the participant's point of no return. *)
            with_span k ~cat:"txn" "prepare.force" (fun () ->
                Participant.prepare k.participant ~txid ~coordinator_site
                  ~files)
          with _ -> false
        in
        (* Paxos Commit phase 2a: the vote only counts once an acceptor
           quorum has registered it — including a No vote, so that the
           abort is as learnable after a coordinator crash as a commit. *)
        let vote =
          match paxos_f k.cl with
          | None -> vote
          | Some f ->
            let v = cast_paxos_vote k ~txid ~coordinator_site ~f ~participants vote in
            (* The coordinator may have died while we were preparing — after
               the topology sweep already ran, so nothing else will notice
               this transaction. Resolve from the acceptors ourselves. *)
            if
              Participant.is_prepared k.participant txid
              && coordinator_site <> k.site
              && not (Transport.reachable k.cl.net k.site coordinator_site)
            then
              ignore
                (Engine.spawn ~name:"pcommit-resolve" ~site:k.site k.engine
                   (fun () -> pcommit_resolve k ~txid ~f));
            v
        in
        k.cl.hooks.on_participant_prepared k.site txid vote;
        R_vote vote
      | Commit_phase2 { txid; files } ->
        (* Applying phase 2 before the participant pass rebuilt prepared
           state would ack a no-op — and let the coordinator forget a
           decision our in-doubt resolution still needs. *)
        if not k.par_ready then R_retry
        else begin
          ss_commit2 k ~txid ~files;
          R_ok
        end
      | Abort_phase2 { txid; files } ->
        if not k.par_ready then R_retry
        else begin
          ss_abort2 k ~txid ~files;
          R_ok
        end
      | Abort_tree { txid; pid; spare } ->
        abort_member k ~txid ~pid ~spare;
        R_ok
      | Query_outcome { txid } ->
        (* Recovery in progress is transient: bounce for retry like every
           other recovering-site path, instead of a hard error the asker
           would misread as a permanent failure. *)
        if not k.coord_ready then R_retry
        else R_outcome (Coord_log.outcome k.coord txid)
      | Vote_2a { txid; participant; vote; ballot; participants } ->
        if not k.acc_ready then R_retry
        else begin
          Stats.incr (stats k) "pcommit.votes_seen";
          R_vote_2b
            (Pc_acceptor.register k.pc_acceptor ~txid ~participant ~vote
               ~ballot ~participants)
        end
      | Decision_query { txid } ->
        if not k.acc_ready then R_retry
        else begin
          let participants, votes = Pc_acceptor.votes_for k.pc_acceptor txid in
          R_decision { participants; votes }
        end
      | Find_process { pid } -> (
        match Proc_table.find k.procs pid with
        | Some p -> R_found (p.Process.status <> Process.In_transit)
        | None -> R_found false)
      | Replica_commit { update } -> ss_replica_commit k ~src update
      | Replica_pull { fid } -> ss_replica_pull k ~fid
      | Replica_versions { vid } -> ss_replica_versions k ~vid
      | Replica_read { fid; reader; pid; pos; len } ->
        ss_replica_read k ~fid ~reader ~pid ~pos ~len
      | Delegate_locks { fid; payload } ->
        Hashtbl.replace k.locks fid
          (Lock_table.restore fid (unmarshal_locks payload));
        Hashtbl.replace k.hosted fid src;
        Stats.incr (stats k) "delegation.in";
        R_ok
      | Recall_locks { fid } -> (
        match Hashtbl.find_opt k.locks fid with
        | Some table when Hashtbl.mem k.hosted fid ->
          if Lock_table.waiting table > 0 then R_retry
          else begin
            Hashtbl.remove k.locks fid;
            Hashtbl.remove k.hosted fid;
            R_data (Bytes.of_string (marshal_locks (Lock_table.locks table)))
          end
        | Some _ | None -> R_err "not hosted here")
      | Acceptor_forget { txid } ->
        if not k.acc_ready then R_retry
        else begin
          Pc_acceptor.forget k.pc_acceptor txid;
          Stats.incr (stats k) "pcommit.forgotten";
          R_ok
        end
      | Shard_lookup { fid } -> (
        match k.cl.shard_dir with
        | None -> R_err "dynamic lock placement off"
        | Some dir ->
          if Shard_dir.site_of dir fid <> k.site then R_err "not the directory site"
          else begin
            Stats.incr (stats k) "shard.dir_lookups";
            let owner, epoch, prev =
              Shard_dir.lookup dir fid ~default:(shard_default_owner k.cl fid)
            in
            R_owner { owner; epoch; prev }
          end)
      | Shard_claim { fid; new_owner; from_epoch } -> (
        match k.cl.shard_dir with
        | None -> R_err "dynamic lock placement off"
        | Some dir ->
          if Shard_dir.site_of dir fid <> k.site then R_err "not the directory site"
          else begin
            Stats.incr (stats k) "shard.dir_claims";
            match
              Shard_dir.claim dir fid
                ~default:(shard_default_owner k.cl fid)
                ~new_owner ~from_epoch ~claimer:src
            with
            | Ok epoch -> R_owner { owner = new_owner; epoch; prev = src }
            | Error (owner, epoch) ->
              Stats.incr (stats k) "shard.dir_claim_stale";
              let _, _, prev =
                Shard_dir.lookup dir fid
                  ~default:(shard_default_owner k.cl fid)
              in
              R_owner { owner; epoch; prev }
          end)
      | Shard_migrate { fid; epoch; payload } ->
        if not (sharded k.cl) then R_err "dynamic lock placement off"
        else begin
          let known =
            match Hashtbl.find_opt k.shard_epochs fid with
            | Some e -> e
            | None -> -1
          in
          if epoch = known && Hashtbl.mem k.shard_owned fid then
            (* The transfer already landed and this is a retransmitted or
               duplicated copy of the same envelope (the R_ok was lost in
               flight). Confirm without reinstalling: the table may have
               granted new locks since, and the stale payload would wipe
               them. *)
            R_ok
          else if epoch <= known then begin
            (* A straggler transfer from a superseded owner: fencing it
               here is what makes the CAS race safe. *)
            Stats.incr (stats k) "shard.fenced";
            R_err "stale shard transfer fenced"
          end
          else begin
            Hashtbl.replace k.locks fid
              (Lock_table.restore fid (unmarshal_locks payload));
            Hashtbl.replace k.shard_owned fid ();
            Hashtbl.replace k.shard_epochs fid epoch;
            if not Mutant.(armed Shard) then begin
              Hashtbl.replace k.shard_hints fid k.site;
              note_lock_authority k.cl fid k.site
            end;
            Stats.incr (stats k) "shard.installs";
            note_migrated k fid ~from_site:src ~epoch;
            R_ok
          end
        end
      | Shard_migrate_req { fid; dst } ->
        if not (sharded k.cl) then R_err "dynamic lock placement off"
        else (
          match shard_route k fid with
          | `Retry -> R_retry
          | `Redirect d -> R_redirect d
          | `Here ->
            if dst <> k.site then shard_migrate k fid ~dst;
            R_ok)
      | Shard_handoff { fid } ->
        (* Hand-off handshake (see Msg): 1 while a transfer we initiated
           is still in flight — the old table's owners are then still
           live — 0 once it settled (delivered, or stranded owners
           aborted before the window closed). *)
        R_int (if Hashtbl.mem k.shard_migrating fid then 1 else 0)
      | Ensure_lock { fid; owner; pid; range; write; momentary; dirty } -> (
        if not (sharded k.cl) then R_err "dynamic lock placement off"
        else
          match shard_route k fid with
          | `Retry -> R_retry
          | `Redirect d ->
            Stats.incr (stats k) "shard.redirects";
            R_redirect d
          | `Here ->
            let table = ensure_table k fid in
            let mode = if write then Mode.Exclusive else Mode.Shared in
            let count_grant () =
              Stats.incr (stats k)
                (if src = k.site then "shard.local_grants"
                 else "shard.remote_grants")
            in
            if momentary then begin
              let pieces = uncovered_pieces table ~owner ~range ~write in
              List.iter
                (fun piece ->
                  match
                    grant_lock k ~fid ~owner ~pid ~mode ~range:piece
                      ~non_transaction:false ~wait:true
                  with
                  | `Granted -> count_grant ()
                  | `Conflict _ | `Cancelled | `Timeout ->
                    raise (Denied "access blocked"))
                pieces;
              R_pieces pieces
            end
            else begin
              if not (Lock_table.owner_covers table ~owner ~range ~write) then begin
                match
                  grant_lock k ~fid ~owner ~pid ~mode ~range
                    ~non_transaction:false ~wait:true
                with
                | `Granted ->
                  Stats.incr (stats k) "lock.implicit";
                  count_grant ()
                | `Cancelled ->
                  raise (Denied "transaction aborted while waiting for lock")
                | `Timeout -> raise (Denied "lock timeout")
                | `Conflict _ -> raise (Denied "lock conflict")
              end;
              (* Rule 2, split across sites: the storage site saw dirty
                 bytes under this range; the lock must be retained here
                 whatever its mode. *)
              if dirty then Lock_table.mark_retained table owner ~range;
              R_ok
            end)
      | Release_locks { fid; owner; pid; ranges; cancel } -> (
        if not (sharded k.cl) then R_err "dynamic lock placement off"
        else
          match shard_route k fid with
          | `Retry -> R_retry
          | `Redirect d -> R_redirect d
          | `Here ->
            (match lock_table k fid with
            | Some table -> (
              match ranges with
              | Some rs ->
                List.iter
                  (fun range -> Lock_table.unlock table ~owner ~pid ~range)
                  rs
              | None ->
                if cancel then Lock_table.cancel_owner table owner;
                Lock_table.release_owner table owner)
            | None -> ());
            R_ok)
      | Batch envs ->
        (* A coalesced wire message: dispatch every member concurrently
           through the full [handle] edge, so each keeps its own
           server-side span (parented under its own caller ctx) and its
           own error isolation, and a batch of prepares can share one
           group-commit force instead of serializing their awaits.
           Members are independent by construction — only prepares,
           phase-2 notifications and replica deltas travel batched. The
           reply preserves submission order regardless of completion
           order. *)
        let results =
          Array.make (List.length envs) (Msg.R_err "batch member failed")
        in
        let ivs =
          List.mapi
            (fun i e ->
              let iv = Engine.Ivar.create () in
              ignore
                (Engine.spawn ~name:"batch-member" ~site:k.site k.engine
                   (fun () ->
                     Fun.protect
                       (fun () -> results.(i) <- handle k ~src e)
                       ~finally:(fun () ->
                         ignore (Engine.try_fill k.engine iv ()))));
              iv)
            envs
        in
        List.iter Engine.await ivs;
        R_batch (Array.to_list results)
    with
    | Denied reason -> R_err reason
    | Filestore.Conflicting_write (_, a, b) ->
      R_err (Fmt.str "conflicting write %a vs %a" Owner.pp a Owner.pp b)
    | Not_found -> R_err "not found"
    | Invalid_argument m -> R_err m
  end

(* Unwrap the envelope and, when a collector is installed, run the
   dispatch inside a server-side span parented under the remote caller's
   span (carried in [env.ctx]) — this is the edge that stitches a
   transaction's tree across sites. *)
and handle_env k ~src (env : Msg.env) =
  match k.cl.otracer with
  | None -> handle_msg k ~src env.Msg.payload
  | Some otr ->
    if not k.alive then Msg.R_err "site down"
    else
      Otrace.with_span ?parent:env.Msg.ctx otr ~site:k.site ~cat:"rpc"
        ~args:[ ("src", string_of_int src) ]
        (Msg.label env.Msg.payload)
        (fun () -> handle_msg k ~src env.Msg.payload)

(* Run the handler for a rid-tagged request and, when it produced a
   cacheable reply (i.e. it actually executed and had its effect), mark
   the execution for the checker's exactly-once oracle. [R_err]/[R_retry]
   are the handler's refusals — no effect happened, so a later copy
   re-executing is correct, not a duplicate application. *)
and exec_rid k ~src (env : Msg.env) (rid : Msg.rid) =
  let r = handle_env k ~src env in
  (match r with
  | Msg.R_err _ | Msg.R_retry -> ()
  | _ ->
    obs k
      (Obs.Rpc_exec
         {
           client = rid.Msg.r_site;
           inc = rid.Msg.r_inc;
           seq = rid.Msg.r_seq;
           site_inc = k.incarnation;
           label = Msg.label env.Msg.payload;
         }));
  r

(* Exactly-once dispatch for rid-tagged requests (locus_chaos). Three
   layers, in order:
   - the per-client ack watermark fences late wire copies of requests the
     client has already finished ("stale"): they must neither execute nor
     be answered from a cache entry (it was evicted), and answering
     [R_err] is safe because the client is, by definition, gone;
   - the reply cache answers duplicates of a finished request ([Cached])
     and parks duplicates of one still executing ([Running]) on its ivar,
     so concurrent wire copies share the one execution;
   - otherwise this copy is the one that executes. Only replies that had
     an effect are cached (and capped FIFO-style); [R_err]/[R_retry]
     leave no entry so a retry after a refusal runs the handler again. *)
and handle_rid k ~src (env : Msg.env) (rid : Msg.rid) =
  let client = (rid.Msg.r_site, rid.Msg.r_inc) in
  let acked =
    match Hashtbl.find_opt k.rc_acked client with Some a -> a | None -> -1
  in
  if rid.Msg.r_ack > acked then begin
    Hashtbl.replace k.rc_acked client rid.Msg.r_ack;
    Hashtbl.filter_map_inplace
      (fun (s, i, q) slot ->
        match slot with
        | Cached _ when (s, i) = client && q <= rid.Msg.r_ack -> None
        | _ -> Some slot)
      k.reply_cache
  end;
  let acked = max acked rid.Msg.r_ack in
  if rid.Msg.r_seq <= acked then begin
    Stats.incr (stats k) "net.dedup_stale";
    Msg.R_err "stale request"
  end
  else if Mutant.(armed Dedup) then exec_rid k ~src env rid
  else begin
    let key = (rid.Msg.r_site, rid.Msg.r_inc, rid.Msg.r_seq) in
    match Hashtbl.find_opt k.reply_cache key with
    | Some (Cached r) ->
      Stats.incr (stats k) "net.dedup_hits";
      r
    | Some (Running iv) ->
      Stats.incr (stats k) "net.dedup_waits";
      Engine.await iv
    | None ->
      let iv = Engine.Ivar.create () in
      Hashtbl.replace k.reply_cache key (Running iv);
      let r = exec_rid k ~src env rid in
      ignore (Engine.try_fill k.engine iv r);
      let acked_now =
        match Hashtbl.find_opt k.rc_acked client with Some a -> a | None -> -1
      in
      (match r with
      | Msg.R_err _ | Msg.R_retry -> Hashtbl.remove k.reply_cache key
      | _ when rid.Msg.r_seq <= acked_now ->
        (* The client gave up and acked past us while we ran. *)
        Hashtbl.remove k.reply_cache key
      | _ ->
        Hashtbl.replace k.reply_cache key (Cached r);
        Queue.push key k.reply_cache_q;
        while Queue.length k.reply_cache_q > reply_cache_capacity do
          let old = Queue.pop k.reply_cache_q in
          match Hashtbl.find_opt k.reply_cache old with
          | Some (Cached _) -> Hashtbl.remove k.reply_cache old
          | Some (Running _) | None -> ()
        done);
      r
  end

(* The wire entry point. Requests without a rid (the reliable-network
   default) take the historical path untouched; [Batch] members re-enter
   here individually, each with its own rid. *)
and handle k ~src (env : Msg.env) =
  match env.Msg.rid with
  | None -> handle_env k ~src env
  | Some rid -> handle_rid k ~src env rid

(* {1 Crash, restart, recovery (§4.3-4.4)} *)

let kernel_crash k =
  tr k Trace.Recovery "crash";
  k.alive <- false;
  k.recovered <- false;
  Status.clear k.repl;
  Hashtbl.reset k.known_primary;
  (* Records waiting in a group-commit window were never forced: drop
     them with the crash, atomically with their waiters (the flusher
     fiber dies with the site). *)
  List.iter Volume.reset_group_commit (Filestore.volumes k.store);
  Filestore.crash k.store;
  Cache.clear k.cache;
  Proc_table.clear k.procs;
  Txn_state.crash k.txns;
  Participant.crash k.participant;
  Pc_acceptor.crash k.pc_acceptor;
  Hashtbl.reset k.resolving;
  (* Doubt is volatile state: the recovery scan recounts it. *)
  Stats.add (stats k) "txn.in_doubt" (-(Hashtbl.length k.doubted));
  Hashtbl.reset k.doubted;
  Hashtbl.reset k.locks;
  Hashtbl.reset k.fibers;
  Hashtbl.reset k.end_waits;
  Hashtbl.reset k.delegations;
  Hashtbl.reset k.hosted;
  Hashtbl.reset k.lock_origins;
  Hashtbl.reset k.shard_owned;
  Hashtbl.reset k.shard_epochs;
  Hashtbl.reset k.shard_hints;
  Hashtbl.reset k.shard_origins;
  Hashtbl.reset k.shard_migrating;
  (* Exactly-once state is volatile by design: the server-side cache dies
     with the incarnation (post-restart re-execution is benign, the state
     the first run produced died too), and the client-side allocator
     restarts at 0 under a fresh incarnation. *)
  Hashtbl.reset k.reply_cache;
  Queue.clear k.reply_cache_q;
  Hashtbl.reset k.rc_acked;
  Hashtbl.reset k.rid_outstanding

(* Re-install exclusive locks over the byte ranges named by prepared
   intentions: in-doubt data must stay inaccessible until the outcome is
   known (§4.2 stores the lock lists in the prepare log for exactly this). *)
let relock_prepared k txid =
  let owner = Owner.Transaction txid in
  let psz = k.cl.cfg.Config.page_size in
  List.iter
    (fun (it : Intentions.t) ->
      let table = ensure_table k it.Intentions.fid in
      List.iter
        (fun (p : Intentions.page_commit) ->
          List.iter
            (fun (off, len) ->
              let pos = (p.Intentions.index * psz) + off in
              match
                Lock_table.request table ~owner
                  ~pid:(Pid.make ~origin:k.site ~num:0)
                  ~mode:Mode.Exclusive
                  ~range:(Byte_range.of_pos_len ~pos ~len)
                  ~non_transaction:false
              with
              | `Granted ->
                Lock_table.mark_retained table owner
                  ~range:(Byte_range.of_pos_len ~pos ~len)
              | `Conflict _ -> ())
            p.Intentions.ranges)
        it.Intentions.pages)
    (Participant.prepared_intentions k.participant txid)

let recover k =
  with_span k ~cat:"recovery" "recovery" @@ fun () ->
  let cl = k.cl in
  tr k Trace.Recovery "recovery starts";
  (* Acceptor pass first: replay registered Paxos Commit votes, so this
     site can answer Vote_2a / Decision_query again before anything that
     might depend on the acceptor quorum (including our own passes). *)
  Pc_acceptor.recover k.pc_acceptor;
  k.acc_ready <- true;
  (* Rebuild prepared participant state BEFORE replaying the coordinator
     log: the replay's phase-2 to this very site must land on real
     prepared state — against an empty participant it would ack a no-op,
     the coordinator would mark the transaction finished and garbage-
     collect the acceptors, and the in-doubt state rebuilt below could
     never resolve. (Remote coordinators replaying concurrently bounce on
     the [par_ready] gate for the same reason.) *)
  let in_doubt = Participant.recover k.participant in
  tr k Trace.Recovery "participant: %d in doubt" (List.length in_doubt);
  List.iter
    (fun (txid, _) ->
      (* Under dynamic placement the relocks below land in local tables:
         pull each file's lock-manager role home first so they are
         authoritative. If the role's current owner survives unreachable,
         leave it — its transferred table still retains our locks. *)
      if sharded cl then
        List.iter
          (fun fid -> try shard_claim_home k fid with Denied _ -> ())
          (Participant.prepared_files k.participant txid);
      relock_prepared k txid;
      enter_doubt k txid)
    in_doubt;
  k.par_ready <- true;
  (* Coordinator pass: finish or abort every transaction in the log. *)
  let records = Coord_log.scan k.coord in
  tr k Trace.Recovery "coordinator log: %d records" (List.length records);
  List.iter
    (fun (c : Log_record.coordinator) ->
      let txid = c.Log_record.txid in
      let by_site =
        List.fold_left
          (fun acc (fid, s) ->
            match List.assoc_opt s acc with
            | Some r ->
              r := fid :: !r;
              acc
            | None -> (s, ref [ fid ]) :: acc)
          [] c.Log_record.files
      in
      let decision =
        match c.Log_record.status with
        | Log_record.Committed -> Some true
        | Log_record.Aborted -> Some false
        | Log_record.Unknown -> (
          match paxos_f cl with
          | None -> Some false (* presumed abort (§4.4) *)
          | Some f -> (
            (* Under Paxos Commit an Unknown record does not mean abort:
               the votes may have reached their quorums (and participants
               may already have resolved commit from them while we were
               down). Recompute the decision from the acceptor set — the
               same deterministic function every resolver applies. *)
            match
              pcommit_read_decision k ~txid ~f ~hint:(List.map fst by_site)
            with
            | `Commit -> Some true
            | `Abort -> Some false
            | `Unknown ->
              Stats.incr (stats k) "pcommit.coord_unresolved";
              None))
      in
      match decision with
      | None ->
        (* Keep the Unknown record; a later recovery (or the participants'
           own resolvers) will finish the job. *)
        ()
      | Some committed ->
        (if c.Log_record.status = Log_record.Unknown then
           Coord_log.decide k.coord ~txid
             (if committed then Log_record.Committed else Log_record.Aborted));
        (* Replayed decision: re-announce the outcome (the checker keeps the
           first outcome event per transaction, so duplicates are harmless,
           and a crash before the decision point leaves only this one). *)
        obs k (if committed then Obs.Commit { txid } else Obs.Abort { txid });
        let all_acked = ref true in
        List.iter
          (fun (s, r) ->
            let msg =
              if committed then Msg.Commit_phase2 { txid; files = !r }
              else Msg.Abort_phase2 { txid; files = !r }
            in
            match
              rpc_retry_p cl cl.cfg.Config.retries.Config.replay
                ~retry_if:(fun r -> r <> Msg.R_ok)
                ~src:k.site ~dst:s (envelope cl msg)
            with
            | Ok Msg.R_ok -> ()
            | Ok _ | Error _ -> all_acked := false)
          by_site;
        if !all_acked then begin
          Coord_log.finished k.coord ~txid;
          pcommit_forget k ~txid
        end;
        Stats.incr (stats k)
          (if committed then "recovery.replayed_commit" else "recovery.replayed_abort"))
    records;
  k.coord_ready <- true;
  (* Chase the coordinators for the outcomes of the in-doubt state the
     participant pass above rebuilt. *)
  List.iter
    (fun (txid, coord_site) ->
      match paxos_f cl with
      | Some f ->
        (* Non-blocking path: the outcome is a function of the acceptor
           quorum — no need to wait for the coordinator site at all. *)
        pcommit_resolve k ~txid ~f
      | None ->
        let rec ask tries =
          if tries > 100 then Stats.incr (stats k) "recovery.still_in_doubt"
          else begin
            let reply =
              match
                rpc_retry_p cl cl.cfg.Config.retries.Config.outcome
                  ~retry_if:(fun r ->
                    if r = Msg.R_retry then begin
                      (* The coordinator is up but its own recovery has not
                         replayed the log yet: bounce, don't misread it as a
                         permanent failure. *)
                      Stats.incr (stats k) "recovery.outcome_retries";
                      true
                    end
                    else false)
                  ~src:k.site ~dst:coord_site
                  (envelope cl (Msg.Query_outcome { txid }))
              with
              | Ok r -> r
              | Error e -> Msg.R_err (Fmt.str "%a" Transport.pp_error e)
            in
            match reply with
            | Msg.R_outcome (Some Log_record.Committed) ->
              ss_commit2 k ~txid ~files:[]
            | Msg.R_outcome (Some Log_record.Aborted) | Msg.R_outcome None ->
              (* Presumed abort: a coordinator with no record must have
                 aborted (or finished long ago — in which case it had already
                 heard our ack, impossible while we are in doubt). *)
              ss_abort2 k ~txid ~files:[]
            | Msg.R_outcome (Some Log_record.Unknown) | Msg.R_err _ | _ ->
              Engine.sleep 5_000_000;
              ask (tries + 1)
          end
        in
        ask 0)
    in_doubt;
  (* Only now may co-hosts reconcile against us: every in-doubt commit
     has been applied (and propagated) or aborted. *)
  k.recovered <- true

let kernel_restart k =
  k.alive <- true;
  k.incarnation <- k.incarnation + 1;
  k.coord_ready <- false;
  k.par_ready <- false;
  k.acc_ready <- false;
  k.recovered <- false;
  k.txseq <- 0;
  k.rid_seq <- 0;  (* the bumped incarnation disambiguates reused seqs *)
  k.coord <- Coord_log.create (Coord_log.volume k.coord);
  (* Whatever propagation we missed while down is invisible to us:
     every replicated copy is suspect until reconciled. The topology
     watcher (which runs right after the restart watchers) spawns the
     reconcilers. *)
  List.iter
    (fun vid -> ignore (Status.degrade k.repl vid))
    (hosted_replicated_vids k);
  ignore
    (Engine.spawn ~name:(Printf.sprintf "recovery@%d" k.site) ~site:k.site k.engine
       (fun () -> recover k))

(* Topology change (§4.3): abort active transactions that span lost sites,
   and clean up storage-site state left by unreachable transactions that
   never prepared. *)
let topology_sweep k =
  let cl = k.cl in
  ignore
    (Engine.spawn ~name:(Printf.sprintf "topo-sweep@%d" k.site) ~site:k.site
       k.engine (fun () ->
         (* As a transaction-home site. *)
         List.iter
           (fun (txn : Txn_state.txn) ->
             if txn.Txn_state.phase = Txn_state.Active then begin
               let member_sites =
                 match Hashtbl.find_opt cl.txn_members txn.Txn_state.txid with
                 | Some r -> List.map snd !r
                 | None -> []
               in
               let file_sites = List.map snd txn.Txn_state.file_list in
               let lost =
                 List.exists
                   (fun s -> not (Transport.reachable cl.net k.site s))
                   (member_sites @ file_sites)
               in
               if lost then begin
                 Stats.incr (stats k) "txn.topology_aborts";
                 abort_transaction cl ~reason:Crash ~src:k.site
                   txn.Txn_state.txid
               end
             end)
           (Txn_state.active k.txns);
         (* Delegated-out lock authority at a site that just became
            unreachable is lost with that site's volatile state: resume at
            home with an empty table (owning transactions get aborted by
            the sweeps below). *)
         let stale_delegations =
           Hashtbl.fold
             (fun fid d acc ->
               if not (Transport.reachable cl.net k.site d) then fid :: acc
               else acc)
             k.delegations []
         in
         List.iter
           (fun fid ->
             Hashtbl.replace k.locks fid (Lock_table.create fid);
             Hashtbl.remove k.delegations fid;
             note_lock_authority cl fid k.site;
             Stats.incr (stats k) "delegation.lost")
           stale_delegations;
         (* Hosted lock authority whose home storage site is gone dies
            with it. *)
         let stale_hosted =
           Hashtbl.fold
             (fun fid home acc ->
               if not (Transport.reachable cl.net k.site home) then fid :: acc
               else acc)
             k.hosted []
         in
         List.iter
           (fun fid ->
             Hashtbl.remove k.hosted fid;
             Hashtbl.remove k.locks fid)
           stale_hosted;
         (* As a storage site: foreign unprepared transactions whose home
            is unreachable are aborted locally; prepared ones stay in
            doubt. *)
         let foreign_txids =
           Hashtbl.fold
             (fun _ table acc ->
               List.fold_left
                 (fun acc (l : Lock_table.lock) ->
                   match l.Lock_table.owner with
                   | Owner.Transaction txid
                     when not (List.exists (Txid.equal txid) acc) ->
                     txid :: acc
                   | Owner.Transaction _ | Owner.Process _ -> acc)
                 acc (Lock_table.locks table))
             k.locks []
         in
         List.iter
           (fun txid ->
             if not (Participant.is_prepared k.participant txid) then begin
               let home =
                 match Hashtbl.find_opt cl.txn_tops txid with
                 | Some top -> location_hint cl top
                 | None -> None
               in
               let unreachable =
                 match home with
                 | Some s -> not (Transport.reachable cl.net k.site s)
                 | None -> false
               in
               if unreachable then begin
                 Stats.incr (stats k) "txn.storage_site_aborts";
                 count_abort cl Orphan;
                 ss_abort2 k ~txid ~files:[];
                 (* Unprepared + home lost = the transaction can never
                    commit (a prepare here would now vote no): record the
                    abort so the checker knows its writes were discarded
                    before any later reader was granted the freed locks. *)
                 obs k (Obs.Abort { txid })
               end
             end)
           foreign_txids;
         (* Prepared transactions whose coordinator just became
            unreachable are in doubt. Under 2PC that is terminal until the
            coordinator recovers (the gauge makes the blocking window
            visible); under Paxos Commit the acceptor set holds the
            decision, so spawn a resolver and decide without it. *)
         List.iter
           (fun txid ->
             match Participant.coordinator_of k.participant txid with
             | Some coord
               when coord <> k.site
                    && not (Transport.reachable cl.net k.site coord) -> (
               enter_doubt k txid;
               match paxos_f cl with
               | None -> ()
               | Some f ->
                 Stats.incr (stats k) "pcommit.coordinator_lost";
                 ignore
                   (Engine.spawn ~name:"pcommit-resolve" ~site:k.site
                      k.engine (fun () -> pcommit_resolve k ~txid ~f)))
             | Some _ | None -> ())
           (Participant.prepared_transactions k.participant)))

(* Replica freshness on a topology change. A secondary that lost sight
   of a co-host (or whose primary moved) may have missed propagation and
   degrades until reconciled. A site that just became primary degrades
   too: the old primary may have committed versions it never saw. A
   primary that stayed primary keeps serving — it authored every version,
   so it cannot be stale, and the secondaries cannot advance without it. *)
let replica_topology_mark k =
  let cl = k.cl in
  List.iter
    (fun vid ->
      let p = storage_site cl (File_id.make ~vid ~ino:0) in
      let prev = Hashtbl.find_opt k.known_primary vid in
      Hashtbl.replace k.known_primary vid p;
      let degraded_now = Status.state k.repl vid = Status.Degraded in
      let any_lost =
        match Hashtbl.find_opt cl.vol_hosts vid with
        | Some hosts ->
          List.exists
            (fun h -> h <> k.site && not (Transport.reachable cl.net k.site h))
            hosts
        | None -> false
      in
      if p <> k.site then begin
        if any_lost || prev <> Some p || degraded_now then mark_degraded k vid
      end
      else if prev <> Some k.site || degraded_now then mark_degraded k vid)
    (hosted_replicated_vids k)

(* {1 Construction} *)

let make engine cfg =
  let n_sites = cfg.Config.n_sites in
  if cfg.Config.shards > 0 && cfg.Config.lock_delegation then
    invalid_arg "Kernel.make: lock_delegation and shards are mutually exclusive";
  (match cfg.Config.commit_protocol with
  | Config.Two_phase -> ()
  | Config.Paxos { f } ->
    if f < 0 then invalid_arg "Kernel.make: Paxos f must be >= 0";
    if n_sites < (2 * f) + 1 then
      invalid_arg "Kernel.make: Paxos needs n_sites >= 2f+1 acceptor sites");
  List.iter
    (fun s ->
      if not (List.exists (fun (_, hosts) -> List.mem s hosts) cfg.Config.volumes)
      then
        invalid_arg
          (Printf.sprintf
             "Kernel.make: site %d hosts no volume (needed for its coordinator log)"
             s))
    (List.init n_sites Fun.id);
  let net =
    Transport.create ~rpc_timeout_us:cfg.Config.rpc_timeout_us engine ~n_sites
  in
  let cl =
    {
      cfg;
      c_engine = engine;
      net;
      ks = [||];
      namespace = Hashtbl.create 64;
      paths = Hashtbl.create 64;
      vol_hosts = Hashtbl.create 8;
      primaries = Hashtbl.create 8;
      locations = Hashtbl.create 64;
      exit_ivars = Hashtbl.create 64;
      lock_authority = Hashtbl.create 16;
      root_dir = None;
      txn_tops = Hashtbl.create 32;
      txn_members = Hashtbl.create 32;
      hooks = no_hooks ();
      observer = None;
      otracer = None;
      shard_dir =
        (if cfg.Config.shards > 0 then
           Some (Shard_dir.create ~n_shards:cfg.Config.shards ~n_sites)
         else None);
      health = None;
    }
  in
  List.iter
    (fun (vid, hosts) ->
      if hosts = [] then invalid_arg "Kernel.make: volume with no hosts";
      Hashtbl.replace cl.vol_hosts vid hosts)
    cfg.Config.volumes;
  let make_kernel s =
    let cache = Cache.create ~capacity_pages:cfg.Config.cache_pages engine in
    let store = Filestore.create engine ~cache in
    let hosted =
      List.filter_map
        (fun (vid, hosts) -> if List.mem s hosts then Some vid else None)
        cfg.Config.volumes
    in
    List.iter
      (fun vid ->
        let vol = Volume.create engine ~vid ~page_size:cfg.Config.page_size () in
        Volume.set_two_write_log vol cfg.Config.two_write_log;
        if cfg.Config.group_commit_window_us > 0 then begin
          Volume.set_group_commit vol ~site:s
            ~window_us:cfg.Config.group_commit_window_us;
          (* The trace hook reads [cl.otracer] at flush time, so spans
             appear as soon as a collector is installed. *)
          Volume.set_group_trace vol (fun ~size f ->
              match cl.otracer with
              | None -> f ()
              | Some otr ->
                Otrace.with_span otr ~site:s ~cat:"txn"
                  ~args:[ ("size", string_of_int size) ]
                  "commit.batch" f)
        end;
        Filestore.mount store vol)
      hosted;
    let participant = Participant.create store in
    Participant.set_prepare_log_per_file participant cfg.Config.prepare_log_per_file;
    let log_vol =
      match hosted with
      | vid :: _ -> Option.get (Filestore.volume store ~vid)
      | [] -> assert false
    in
    let known_primary = Hashtbl.create 8 in
    List.iter
      (fun (vid, hosts) ->
        if List.mem s hosts then Hashtbl.replace known_primary vid (List.hd hosts))
      cfg.Config.volumes;
    {
      site = s;
      engine;
      alive = true;
      incarnation = 1;
      txseq = 0;
      coord_ready = true;
      par_ready = true;
      recovered = true;
      repl = Status.create ();
      known_primary;
      cache;
      store;
      locks = Hashtbl.create 32;
      procs = Proc_table.create ~site:s;
      txns = Txn_state.create ();
      participant;
      coord = Coord_log.create log_vol;
      pc_acceptor = Pc_acceptor.create log_vol;
      acc_ready = true;
      resolving = Hashtbl.create 8;
      doubted = Hashtbl.create 8;
      fibers = Hashtbl.create 32;
      end_waits = Hashtbl.create 8;
      delegations = Hashtbl.create 8;
      hosted = Hashtbl.create 8;
      lock_origins = Hashtbl.create 8;
      shard_owned = Hashtbl.create 8;
      shard_epochs = Hashtbl.create 8;
      shard_hints = Hashtbl.create 16;
      shard_origins = Hashtbl.create 8;
      shard_migrating = Hashtbl.create 4;
      reply_cache = Hashtbl.create 32;
      reply_cache_q = Queue.create ();
      rc_acked = Hashtbl.create 8;
      rid_seq = 0;
      rid_outstanding = Hashtbl.create 8;
      cl;
    }
  in
  cl.ks <- Array.init n_sites make_kernel;
  Array.iter
    (fun k -> Transport.set_handler net k.site (fun ~src msg -> handle k ~src msg))
    cl.ks;
  if cfg.Config.rpc_batch_window_us > 0 then
    Transport.set_batch net ~window_us:cfg.Config.rpc_batch_window_us
      ~wrap:(fun envs -> { Msg.ctx = None; rid = None; payload = Msg.Batch envs })
      ~unwrap:(function Msg.R_batch rs -> Some rs | _ -> None)
      ~trace:(fun ~site ~size f ->
        match cl.otracer with
        | None -> f ()
        | Some otr ->
          Otrace.with_span otr ~site ~cat:"net"
            ~args:[ ("size", string_of_int size) ]
            "rpc.batch" f)
      ();
  (match cfg.Config.net_faults with
  | None -> ()
  | Some f ->
    Transport.set_faults net (Some f);
    Transport.on_fault net (fun ~src ~dst kind ->
        observe cl ~site:src (Obs.Net_fault { dst; kind })));
  Transport.on_crash net (fun s ->
      kernel_crash cl.ks.(s);
      (* Client crash announcement: servers drop the crashed site's
         reply-cache entries and ack watermark — its next incarnation is
         a fresh id space, so nothing of the old one can be needed. *)
      Array.iter
        (fun k ->
          if k.site <> s then begin
            Hashtbl.filter_map_inplace
              (fun (cs, _, _) slot -> if cs = s then None else Some slot)
              k.reply_cache;
            Hashtbl.filter_map_inplace
              (fun (cs, _) a -> if cs = s then None else Some a)
              k.rc_acked
          end)
        cl.ks);
  Transport.on_restart net (fun s -> kernel_restart cl.ks.(s));
  Transport.on_topology_change net (fun () ->
      Array.iter
        (fun k ->
          if k.alive then begin
            topology_sweep k;
            replica_topology_mark k
          end)
        cl.ks);
  health_arm cl;
  cl

let crash_site cl s = Transport.crash cl.net s
let restart_site cl s = Transport.restart cl.net s

(* {1 Test and bench oracles} *)

let read_committed_oracle cl fid =
  let k = kernel cl (storage_site cl fid) in
  match Filestore.volume k.store ~vid:fid.File_id.vid with
  | None -> ""
  | Some vol ->
    if not (Volume.inode_exists vol fid.File_id.ino) then ""
    else begin
      let inode = Volume.read_inode_nosim vol fid.File_id.ino in
      let psz = Volume.page_size vol in
      let out = Bytes.make inode.Volume.size '\000' in
      Array.iteri
        (fun index slot ->
          if slot <> -1 then begin
            let content = Volume.read_page_nosim vol slot in
            let base = index * psz in
            let len = min psz (inode.Volume.size - base) in
            if len > 0 then Bytes.blit content 0 out base len
          end)
        inode.Volume.pages;
      Bytes.to_string out
    end

let active_transactions cl =
  Array.to_list cl.ks
  |> List.concat_map (fun k ->
         if k.alive then
           List.map (fun (t : Txn_state.txn) -> t.Txn_state.txid) (Txn_state.active k.txns)
         else [])

(* Liveness oracle: prepared state still present on a live site once the
   system has quiesced means a participant is blocked in-doubt — the
   non-blocking property Paxos Commit must provide (and 2PC lacks when
   the coordinator stays down). *)
let in_doubt_participants cl =
  Array.to_list cl.ks
  |> List.concat_map (fun k ->
         if k.alive then
           List.map
             (fun txid -> (k.site, txid))
             (Participant.prepared_transactions k.participant)
         else [])

let acceptor k = k.pc_acceptor

(* {1 Replication introspection} *)

type replica_host_status = {
  rh_site : int;
  rh_alive : bool;
  rh_fresh : bool;
  rh_primary : bool;
  rh_versions : (int * int) list;  (* (ino, committed version) *)
}

type replica_volume_status = {
  rv_vid : int;
  rv_primary : int;
  rv_hosts : replica_host_status list;
}

let replica_fresh cl ~site:s ~vid = Status.fresh cl.ks.(s).repl vid

let replica_status cl =
  Hashtbl.fold (fun vid hosts acc -> (vid, hosts) :: acc) cl.vol_hosts []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (vid, hosts) ->
         let primary = storage_site cl (File_id.make ~vid ~ino:0) in
         let rv_hosts =
           List.map
             (fun s ->
               let k = cl.ks.(s) in
               let rh_versions =
                 match Filestore.volume k.store ~vid with
                 | None -> []
                 | Some vol ->
                   Volume.inode_numbers vol
                   |> List.map (fun ino ->
                          (ino, Volume.inode_version_nosim vol ino))
                   |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
               in
               {
                 rh_site = s;
                 rh_alive = k.alive;
                 rh_fresh = Status.fresh k.repl vid;
                 rh_primary = s = primary;
                 rh_versions;
               })
             hosts
         in
         { rv_vid = vid; rv_primary = primary; rv_hosts })
