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
module Hseries = Locus_health.Series

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

  type t = {
    n_sites : int;
    volumes : (int * Site.t list) list;
    page_size : int;
    lock_cache : bool;
    prefetch : bool;
    two_write_log : bool;
    async_phase2 : bool;
    rpc_timeout_us : int;
    batch_window_us : int;  (* group commit and RPC coalescing; 0 = off *)
    commit_protocol : commit_protocol;
    shards : int;  (* 0 = static lock placement; > 0 enables locus_shard *)
    shard_policy : Locus_shard.Policy.t;
    net_faults : Transport.faults option;  (* locus_chaos; None = reliable *)
    health_window_us : int;  (* locus_health sampling window; 0 = off *)
  }

  let default ~n_sites =
    {
      n_sites;
      volumes = List.init n_sites (fun i -> (i, [ i ]));
      page_size = 1024;
      lock_cache = true;
      prefetch = false;
      two_write_log = false;
      async_phase2 = true;
      rpc_timeout_us = Transport.default_rpc_timeout_us;
      batch_window_us = 0;
      commit_protocol = Two_phase;
      shards = 0;
      shard_policy = Locus_shard.Policy.default;
      net_faults = None;
      health_window_us = 0;
    }

  let with_replication ~n_sites ~factor =
    { (default ~n_sites) with volumes = Placement.volumes ~n_sites ~factor }

  let with_batching ~window_us cfg = { cfg with batch_window_us = window_us }

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
     every [window_us] of virtual time, feeding per-series rings of 64
     windows and the default watchdog rules. Off by default — like every
     observability layer before it, the default configuration stays
     bit-for-bit identical. Sampling runs in engine-scheduled closures
     (outside any fiber), so it consumes no virtual time and draws no
     randomness. *)
  let with_health ?(window_us = 100_000) cfg =
    if window_us <= 0 then
      invalid_arg "Config.with_health: window_us must be > 0";
    { cfg with health_window_us = window_us }

  (* Dynamic lock placement (locus_shard): the one mechanism that moves
     lock authority, including §5.2's transfer to a heavy user. *)
  let with_shards ~shards ?policy cfg =
    if shards <= 0 then invalid_arg "Config.with_shards: shards must be > 0";
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
  aborts : (Txid.t, unit Engine.Ivar.t) Hashtbl.t;  (* in-flight, homed here *)
  mutable scanning : bool;  (* a deadlock scan is running here *)
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

and reply_slot = Cached of Msg.packed | Running of Msg.packed Engine.Ivar.t

and cluster = {
  cfg : Config.t;
  c_engine : Engine.t;
  net : (Msg.env, Msg.packed) Transport.t;
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
   cluster-scope rules, the three series those read (looked up once, at
   arm time) and the alarm history (newest first). *)
and health_plane = {
  hp_sampler : Hsampler.t;
  hp_site_rules : Hrules.t array;
  hp_cluster_rules : Hrules.t;
  hp_lock_wait_p99 : Hseries.t;
  hp_retries : Hseries.t;
  hp_migrations : Hseries.t;
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

let envelope cl ?rid msg = Msg.envelope ?ctx:(wire_ctx cl) ?rid msg

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

(* Drop [owner]'s locks from this site's table for [fid], after
   cancelling its queued waits when [cancel]. *)
let release_local k fid ~owner ~cancel =
  match lock_table k fid with
  | Some table ->
    if cancel then Lock_table.cancel_owner table owner;
    Lock_table.release_owner table owner
  | None -> ()

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

(* The typed reply to [msg]: a transport failure is [Msg.Net]. *)
let reply msg = function
  | Ok r -> Msg.unpack msg r
  | Error e -> Error (Msg.Net e)

(* [batched] joins the RPC batch window when [Config.batch_window_us]
   is on, and is the plain call otherwise. Only messages that are
   independent of each other may be batched (prepares, phase-2
   notifications, replica deltas): a batch is processed sequentially at
   the destination.

   [rid] is a request id the caller holds across its own retry loop
   (the file-list merge, which is not idempotent): every attempt then
   carries that one id, and the caller marks it done. Without it a remote
   send under the chaos layer allocates and retires a fresh id. *)
let rpc ?(batched = false) ?rid cl ~src ~dst msg =
  match cl.cfg.Config.net_faults with
  | Some _ when src <> dst ->
    let k = cl.ks.(src) in
    let held = Option.is_some rid in
    let rid = match rid with Some rid -> rid | None -> rid_alloc k in
    let r =
      reply msg
        (Transport.rpc_retry ~batched cl.net ~src ~dst (envelope cl ~rid msg))
    in
    if not held then rid_done k rid;
    r
  | Some _ | None ->
    reply msg (Transport.rpc ~batched cl.net ~src ~dst (envelope cl ?rid msg))

(* [Transport.rpc_retry] without a request id: a transport failure
   always retries, a refusal while [retry] holds for it. *)
let rpc_retry ?batched ~attempts ~backoff_us ~retry cl ~src ~dst msg =
  reply msg
    (Transport.rpc_retry ?batched ~attempts ~backoff_us cl.net
       ~retry_if:(function Msg.Value _ -> false | Msg.Failed e -> retry e)
       ~src ~dst (envelope cl msg))

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
    | Ok fid -> (
      (* Lost race with a concurrent first resolver: keep the winner's. *)
      match cl.root_dir with
      | Some existing -> existing
      | None ->
        cl.root_dir <- Some fid;
        bind_path cl "/" fid;
        fid)
    | Error e -> failwith (Fmt.str "root_dir: %a" Msg.pp_error e))
let path_of cl fid = Hashtbl.find_opt cl.paths fid

let create_file cl ~src ~path ~vid =
  if Hashtbl.mem cl.namespace path then
    invalid_arg (Printf.sprintf "Kernel.create_file: %s exists" path);
  let host = storage_site cl (File_id.make ~vid ~ino:0) in
  match rpc cl ~src ~dst:host (Msg.Create_file { vid }) with
  | Ok fid ->
    bind_path cl path fid;
    fid
  | Error e -> failwith (Fmt.str "create_file: %a" Msg.pp_error e)

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

(* {1 Abort requests (§4.3) and the deadlock service (§3.1)} *)

(* The abort-reason taxonomy, counted as [txn.abort.<reason>]. *)
type abort_reason = Msg.abort_reason =
  | Deadlock | Orphan | Crash | Degraded_vote | Coordinator_lost | User

let abort_reason_label = function
  | Deadlock -> "deadlock"
  | Orphan -> "orphan"
  | Crash -> "crash"
  | Degraded_vote -> "degraded_vote"
  | Coordinator_lost -> "coordinator_lost"
  | User -> "user"

(* Counted where an abort starts, so a transaction that deadlock scans
   at two sites both picked is one victim. *)
let count_abort cl reason =
  let st = Engine.stats cl.c_engine in
  Stats.incr st ("txn.abort." ^ abort_reason_label reason);
  if reason = Deadlock then Stats.incr st "deadlock.victims"

let registry_remove_txn cl txid =
  Hashtbl.remove cl.txn_tops txid;
  Hashtbl.remove cl.txn_members txid

let register_member cl txid pid s =
  match Hashtbl.find_opt cl.txn_members txid with
  | Some r -> r := (pid, s) :: !r
  | None -> Hashtbl.replace cl.txn_members txid (ref [ (pid, s) ])

let register_transaction cl txid ~top ~site:s =
  Hashtbl.replace cl.txn_tops txid top;
  register_member cl txid top s

let transaction_top cl txid = Hashtbl.find_opt cl.txn_tops txid

let registry_remove_member cl txid pid =
  match Hashtbl.find_opt cl.txn_members txid with
  | Some r -> r := List.filter (fun (p, _) -> not (Pid.equal p pid)) !r
  | None -> ()

let update_member_site cl txid pid s =
  match Hashtbl.find_opt cl.txn_members txid with
  | Some r ->
    r := (pid, s) :: List.filter (fun (p, _) -> not (Pid.equal p pid)) !r
  | None -> ()

(* Probe every reachable site for [pid], and note where it runs. *)
let find_process cl ~src pid =
  let here s =
    Transport.reachable cl.net src s
    &&
    match rpc cl ~src ~dst:s (Msg.Find_process { pid }) with
    | Ok here -> here
    | Error _ -> false (* no answer: not found there *)
  in
  let found = List.find_opt here (Transport.sites cl.net) in
  Option.iter (note_location cl pid) found;
  found

(* Where [pid] runs: its location hint while that site is up, else a
   probe of every site. *)
let locate_process cl ~src pid =
  match location_hint cl pid with
  | Some s when Transport.site_up cl.net s -> Some s
  | Some _ | None -> find_process cl ~src pid

(* Send an [Abort_tree] for [pid] to the site running it (§4.1): to its
   location hint, and to the site a probe finds only when the hinted site
   is unreachable or answers that it does not have the process. [None]
   if no site has it. *)
let abort_tree cl ~src ~txid ~spare ~reason pid =
  let send s = rpc cl ~src ~dst:s (Msg.Abort_tree { txid; pid; spare; reason }) in
  let probe () = Option.map send (find_process cl ~src pid) in
  match location_hint cl pid with
  | Some s when Transport.reachable cl.net src s -> (
    match send s with
    | Ok false -> probe ()
    | (Ok true | Error _) as r -> Some r)
  | Some _ | None -> probe ()

(* Ask the transaction's home to abort it. When no site has the
   top-level process (its site crashed), sweep every reachable storage
   site instead. *)
let abort_transaction cl ?spare ?(reason = User) ~src txid =
  match transaction_top cl txid with
  | None -> ()
  | Some top -> (
    match abort_tree cl ~src ~txid ~spare ~reason top with
    | Some _ -> ()
    | None ->
      Stats.incr (Engine.stats cl.c_engine) "txn.abort_requests";
      count_abort cl reason;
      List.iter
        (fun dst ->
          if Transport.reachable cl.net src dst then
            ignore (rpc cl ~src ~dst (Msg.Abort_phase2 { txid; files = [] })))
        (Transport.sites cl.net);
      registry_remove_txn cl txid;
      observe cl ~site:src (Obs.Abort { txid }))

(* The wait-for-graph service, run by a lock waiter whose patience ran
   out. One scan at a time per site: a victim's waits are cancelled only
   when its abort reaches their tables, and a second scan here meanwhile
   would pick it again. A waiter that finds a scan running waits on.
   A transaction victim is counted by [count_abort], a process victim
   here. *)
let deadlock_scan k =
  let cl = k.cl in
  if not k.scanning then begin
    k.scanning <- true;
    Fun.protect ~finally:(fun () -> k.scanning <- false) @@ fun () ->
    Stats.incr (stats k) "deadlock.scans";
    List.iter
      (fun victim ->
        match victim with
        | Owner.Transaction txid ->
          abort_transaction cl ~reason:Deadlock ~src:k.site txid
        | Owner.Process _ ->
          Stats.incr (stats k) "deadlock.victims";
          List.iter (fun t -> Lock_table.cancel_owner t victim) (lock_tables cl))
      (Locus_deadlock.Detector.victims (lock_tables cl))
  end

(* {1 Lock requests} *)

(* How long a lock waiter blocks before it runs a wait-for-graph scan
   (§3.1). *)
let deadlock_patience_us = 3_000_000

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
    obs_granted ();
    `Granted
  | `Conflict owners ->
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
        match Engine.await_timeout iv ~timeout:deadlock_patience_us with
        | Some true ->
          apply_rule2 k table fid ~owner ~range;
          obs_granted ();
          `Granted
        | Some false -> `Cancelled
        | None ->
          (* Blocked suspiciously long: run the wait-for-graph service
             (§3.1). If we were the victim our wait gets cancelled and the
             next round sees it. *)
          deadlock_scan k;
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

(* {1 Lock authority}

   Under static placement the storage site manages a file's locks; under
   locus_shard the role moves (below). Clients learn the current
   authority through [Redirect] errors and a hint map. *)

let lock_authority_hint cl fid = Hashtbl.find_opt cl.lock_authority fid
let note_lock_authority cl fid s = Hashtbl.replace cl.lock_authority fid s

let marshal_locks (locks : Lock_table.lock list) = Marshal.to_string locks []
let unmarshal_locks s : Lock_table.lock list = Marshal.from_string s 0

(* {1 Dynamic lock placement (locus_shard)}

   §5.2's transfer of lock management to a heavy user, generalized: each
   file's lock-manager role has a current owner recorded in a sharded
   directory (authoritative per-shard directory sites,
   {!Locus_repl.Placement.directory}), and the role migrates toward the
   site generating the traffic. Every site keeps a
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

(* The role is here and not being handed off. *)
let owns k fid =
  Hashtbl.mem k.shard_owned fid && not (Hashtbl.mem k.shard_migrating fid)

(* [Some dir] when this site holds [fid]'s directory shard. *)
let dir_here k fid =
  match k.cl.shard_dir with
  | Some dir when Shard_dir.site_of dir fid = k.site -> Some dir
  | Some _ | None -> None

let dir_lookup k dir fid =
  Stats.incr (stats k) "shard.dir_lookups";
  Shard_dir.lookup dir fid ~default:(shard_default_owner k.cl fid)

(* The epoch CAS at this site's directory shard, for [claimer]. *)
let dir_claim_here k dir fid ~new_owner ~from_epoch ~claimer =
  Stats.incr (stats k) "shard.dir_claims";
  match
    Shard_dir.claim dir fid
      ~default:(shard_default_owner k.cl fid)
      ~new_owner ~from_epoch ~claimer
  with
  | Ok e -> Ok e
  | Error oe ->
    Stats.incr (stats k) "shard.dir_claim_stale";
    Error oe

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
    (fun txid -> abort_transaction k.cl ~reason:Crash ~src:k.site txid)
    owners

(* Ask the directory who owns the role. [None] when the directory site is
   unreachable — the caller must bounce, never guess. *)
let shard_lookup k fid =
  let cl = k.cl in
  match dir_here k fid with
  | Some dir -> Some (dir_lookup k dir fid)
  | None -> (
    let ds = Shard_dir.site_of (shard_dir_exn cl) fid in
    if not (Transport.reachable cl.net k.site ds) then None
    else
      match rpc cl ~src:k.site ~dst:ds (Msg.Shard_lookup { fid }) with
      | Ok { owner; epoch; prev } -> Some (owner, epoch, prev)
      | Error _ -> None)

(* Move [fid]'s role from [from_epoch] to [new_owner] at the directory,
   here or by message. [`Lost] names the owner and epoch that won
   instead; [`Unreachable] means the directory did not answer. *)
let dir_claim k fid ~new_owner ~from_epoch =
  match dir_here k fid with
  | Some dir -> (
    match dir_claim_here k dir fid ~new_owner ~from_epoch ~claimer:k.site with
    | Ok e -> `Won e
    | Error (o, e) -> `Lost (o, e))
  | None -> (
    let ds = Shard_dir.site_of (shard_dir_exn k.cl) fid in
    match
      rpc k.cl ~src:k.site ~dst:ds
        (Msg.Shard_claim { fid; new_owner; from_epoch })
    with
    | Ok { owner; epoch; prev = _ } ->
      if owner = new_owner && epoch = from_epoch + 1 then `Won epoch
      else `Lost (owner, epoch)
    | Error _ -> `Unreachable)

(* Stop serving the role here: drop it, its table and the remote streak,
   and remember the epoch and the role's new owner. *)
let stand_down k fid ~epoch ~owner =
  Hashtbl.remove k.shard_owned fid;
  Hashtbl.remove k.locks fid;
  Hashtbl.remove k.shard_origins fid;
  Hashtbl.replace k.shard_epochs fid epoch;
  Hashtbl.replace k.shard_hints fid owner

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
        | Ok in_flight -> not in_flight
        | Error _ -> false)

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

(* Where should this site handle a client's lock operation on [fid]? At
   the storage site under static placement; under locus_shard where the
   role lives, counting each redirect. *)
let lock_route k fid =
  if sharded k.cl then (
    match shard_route k fid with
    | `Redirect d ->
      Stats.incr (stats k) "shard.redirects";
      `Redirect d
    | (`Here | `Retry) as r -> r)
  else
    let home = storage_site k.cl fid in
    if k.site = home then `Here else `Redirect home

let count_shard_grant k ~src =
  Stats.incr (stats k)
    (if src = k.site then "shard.local_grants" else "shard.remote_grants")

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
  if owns k fid && dst <> k.site && Transport.reachable cl.net k.site dst
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
      match dir_claim k fid ~new_owner:dst ~from_epoch:cur_epoch with
      | `Unreachable -> ()  (* directory partitioned away: keep serving *)
      | `Lost (owner, epoch) ->
        (* Fenced: someone re-homed the role out from under us (our copy
           of the lock state is dead). Drop it and abort its owners. *)
        Stats.incr (stats k) "shard.fenced";
        stand_down k fid ~epoch ~owner;
        shard_abort_table_owners k table
      | `Won new_epoch -> (
        let payload = marshal_locks (Lock_table.locks table) in
        match
          rpc_retry ~attempts:3 ~backoff_us:2_000 cl
            ~retry:(fun e -> e = Msg.Retry)
            ~src:k.site ~dst
            (Msg.Shard_migrate { fid; epoch = new_epoch; payload })
        with
        | Ok () ->
          if Mutant.(armed Shard) then begin
            (* Self-test fault: fail to stand down — keep the table and
               keep granting at the stale epoch, and wipe the global
               client hint so traffic still reaches us. The epoch-fence
               oracle must flag the resulting split-brain grants. *)
            Hashtbl.remove k.shard_origins fid;
            Hashtbl.remove cl.lock_authority fid
          end
          else begin
            stand_down k fid ~epoch:new_epoch ~owner:dst;
            note_lock_authority cl fid dst
          end
        | Error _ ->
          (* The directory now names [dst] owner but the table never
             arrived: cede ownership (the fence makes our copy unusable)
             and abort the transactions whose lock state was lost, as
             when the owner crashes. *)
          Stats.incr (stats k) "shard.transfer_lost";
          stand_down k fid ~epoch:new_epoch ~owner:dst;
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
    if tries > 24 then Error (Msg.Refused "shard owner unreachable")
    else if not (Transport.reachable cl.net k.site dst) then
      go (refresh dst) (tries + 1)
    else
      match reply msg (Transport.rpc cl.net ~src:k.site ~dst (envelope cl msg)) with
      | Error (Msg.Net _ | Msg.Retry) -> go (refresh dst) (tries + 1)
      | Error (Msg.Redirect d) ->
        Stats.incr (stats k) "shard.forwards";
        Hashtbl.replace k.shard_hints fid d;
        go d (tries + 1)
      | (Ok _ | Error (Msg.Refused _)) as r -> r
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
  if (not (sharded k.cl)) || owns k fid then false
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

(* The lock at the role's owner: [Denied] with the reason it failed. *)
let shard_ensure_lock k ~fid ~owner ~pid ~range ~write ~momentary ~dirty =
  match
    shard_owner_rpc k fid
      (Msg.Ensure_lock { fid; owner; pid; range; write; momentary; dirty })
  with
  | Ok pieces -> pieces
  | Error e -> raise (Denied (Fmt.str "%a" Msg.pp_error e))

let shard_release_pieces k ~fid ~owner ~pid ~pieces =
  if pieces <> [] then
    ignore
      (shard_owner_rpc k fid
         (Msg.Release_locks { fid; owner; pid; ranges = Some pieces; cancel = false }))

(* Lock release under dynamic placement (phase 2, aborts, process
   exit): when the role is not here, drop the owner's locks on [fid] at
   whatever site holds it now. The local table is the caller's. *)
let release_at_owner k fid ~owner ~cancel =
  if sharded k.cl && not (owns k fid) then
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
      match dir_claim k fid ~new_owner:k.site ~from_epoch:epoch with
      | `Lost _ | `Unreachable -> false
      | `Won new_epoch ->
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
                       abort_transaction k.cl ~reason:Crash ~src:k.site
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
  if sharded k.cl && not (owns k fid) then begin
    let cl = k.cl in
    let rec go tries =
      if owns k fid then ()
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
            | Ok () -> ()
            | Error _ -> Hashtbl.remove k.shard_hints fid);
            if not (owns k fid) then begin
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

(* The local halves of the two implicit locks below, shared with the
   lock-manager role's [Msg.Ensure_lock] handler; [granted] runs after
   each new grant. *)

(* Grant the pieces of [range] not covered by [owner]'s own locks, for
   one conventional access. *)
let momentary_grant k ~fid ~owner ~pid ~range ~write ~granted =
  let table = ensure_table k fid in
  let mode = if write then Mode.Exclusive else Mode.Shared in
  let pieces = uncovered_pieces table ~owner ~range ~write in
  List.iter
    (fun piece ->
      match
        grant_lock k ~fid ~owner ~pid ~mode ~range:piece ~non_transaction:false
          ~wait:true
      with
      | `Granted -> granted ()
      | `Conflict _ | `Cancelled | `Timeout -> raise (Denied "access blocked"))
    pieces;
  (table, pieces)

(* A two-phase lock on [range], unless [owner] already holds one that
   covers it. *)
let txn_lock_grant k ~fid ~owner ~pid ~range ~write ~granted =
  let table = ensure_table k fid in
  if not (Lock_table.owner_covers table ~owner ~range ~write) then begin
    let mode = if write then Mode.Exclusive else Mode.Shared in
    match
      grant_lock k ~fid ~owner ~pid ~mode ~range ~non_transaction:false
        ~wait:true
    with
    | `Granted ->
      Stats.incr (stats k) "lock.implicit";
      granted ()
    | `Cancelled -> raise (Denied "transaction aborted while waiting for lock")
    | `Timeout -> raise (Denied "lock timeout")
    | `Conflict _ -> raise (Denied "lock conflict")
  end;
  table

(* Conventional Unix access by a non-transaction process: behave as a
   momentary holder of the appropriate Figure-1 mode on each byte range
   not already covered by the process's explicit locks. *)
let with_momentary k ~fid ~owner ~pid ~range ~write f =
  if shard_remote k fid then begin
    (* The lock-manager role lives elsewhere: hold the uncovered pieces
       there for the duration of the access. *)
    let pieces =
      shard_ensure_lock k ~fid ~owner ~pid ~range ~write ~momentary:true
        ~dirty:false
    in
    Fun.protect f ~finally:(fun () ->
        shard_release_pieces k ~fid ~owner ~pid ~pieces)
  end
  else begin
    let table, pieces =
      momentary_grant k ~fid ~owner ~pid ~range ~write ~granted:ignore
    in
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
    ignore
      (shard_ensure_lock k ~fid ~owner ~pid ~range ~write ~momentary:false ~dirty);
    if dirty then Filestore.adopt k.store fid ~range ~new_owner:owner
  end
  else
    ignore
      (txn_lock_grant k ~fid ~owner ~pid ~range ~write ~granted:ignore
        : Lock_table.t)

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

(* Pages [idxs] of the committed copy, with its version and size: a
   full snapshot (for pulls and freshly created files) or one commit's
   delta. *)
let committed_update k fid ~full idxs =
  let version = Filestore.committed_version k.store fid in
  let size = Filestore.committed_size k.store fid in
  let pages =
    List.filter_map
      (fun i ->
        Option.map (fun b -> (i, b)) (Filestore.committed_page k.store fid i))
      idxs
  in
  (if full then Update.full else Update.delta) ~fid ~version ~size pages

let replica_snapshot k fid =
  committed_update k fid ~full:true
    (Filestore.committed_page_indices k.store fid)

(* Run [f] on each element: concurrently when the batch window is on, so
   that messages for one destination can join one batch; in order
   otherwise. *)
let batch_iter k ~name f xs =
  if k.cl.cfg.Config.batch_window_us > 0 then
    par_iter k ~name (List.map (fun x () -> f x) xs)
  else List.iter f xs

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
  if ((not Mutant.(armed Repl)) || initial) && Filestore.file_exists k.store fid
  then begin
    let others = List.filter (fun s -> s <> k.site) (replica_sites k.cl fid) in
    if others <> [] then begin
      let u =
        match indices with
        | None -> replica_snapshot k fid
        | Some idxs ->
          committed_update k fid ~full:false (List.sort_uniq Int.compare idxs)
      in
      let pctx = wire_ctx k.cl in
      let send dst =
        if Transport.reachable k.cl.net k.site dst then
          with_span k ?parent:pctx ~cat:"repl" "replica.propagate"
            ~args:
              [
                ("dst", string_of_int dst);
                ("version", string_of_int u.Update.version);
              ]
          @@ fun () ->
          match
            rpc_retry ~batched:true ~attempts:3 ~backoff_us:200_000 k.cl
              ~retry:(fun _ -> false) ~src:k.site ~dst
              (Msg.Replica_commit { update = u })
          with
          | Ok () ->
            obs k (Obs.Propagate { fid; version = u.Update.version; dst });
            Stats.incr (stats k) "replica.propagate";
            Stats.add (stats k) "replica.propagate_bytes" (Update.bytes u)
          | Error _ ->
            (* The secondary missed this version; it catches up in its
               reconciliation pass after the next topology event. *)
            Stats.incr (stats k) "replica.propagate_miss"
      in
      (* With a batch window on, one commit's deltas (and any concurrent
         commit's) can coalesce per destination. *)
      batch_iter k ~name:"repl-send" send others
    end
  end

(* Install a pulled full snapshot from [src]; [true] (and a recorded
   reconciliation) when it moved the copy forward. *)
let install_snapshot k fid ~src (u : Update.t) =
  let moved =
    Filestore.install_replica k.store fid ~version:u.Update.version
      ~size:u.Update.size ~full:true ~pages:u.Update.pages
  in
  if moved then obs k (Obs.Reconcile { fid; version = u.Update.version; src });
  moved

(* Commit [owner]'s pending updates to [fid] as a new version, propagate
   it to the replicas and record it: close with commit, Commit_file and
   process exit. Raises [Denied] on a degraded copy, changing nothing. *)
let commit_owner_updates k fid ~owner =
  if
    Filestore.is_open k.store fid
    && Filestore.modified_by k.store fid owner <> []
  then begin
    ensure_writable k fid;
    let it = Filestore.commit k.store fid ~owner in
    propagate_replicas k ~indices:(Intentions.page_indices it) fid;
    obs k (Obs.File_commit { owner; fid })
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
            | Ok vs ->
              List.iter
                (fun (ino, v) ->
                  let fid = File_id.make ~vid ~ino in
                  if v > Filestore.committed_version k.store fid then begin
                    match rpc cl ~src:k.site ~dst:h (Msg.Replica_pull { fid }) with
                    | Ok u ->
                      if install_snapshot k fid ~src:h u then
                        Stats.incr (stats k) "replica.reconciled"
                    | Error _ -> complete := false
                  end)
                vs
            | Error _ -> complete := false
          end)
        others;
      if !complete && live () then begin
        Status.refresh k.repl vid;
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
  if Filestore.volume k.store ~vid = None then
    Error (Msg.Refused "volume not hosted")
  else begin
    let local = Filestore.committed_version k.store fid in
    if u.Update.version <= local then Ok () (* duplicate retransmission *)
    else if u.Update.full || u.Update.version = local + 1 then begin
      ignore
        (Filestore.install_replica k.store fid ~version:u.Update.version
           ~size:u.Update.size ~full:u.Update.full ~pages:u.Update.pages);
      Stats.incr (stats k) "replica.apply";
      Ok ()
    end
    else begin
      Stats.incr (stats k) "replica.gaps";
      (match rpc k.cl ~src:k.site ~dst:src (Msg.Replica_pull { fid }) with
      | Ok u' -> ignore (install_snapshot k fid ~src u' : bool)
      | Error _ ->
        (* Cannot fill the gap right now: the whole copy is suspect. *)
        mark_degraded k vid);
      Ok ()
    end
  end

let ss_replica_pull k ~fid =
  if not k.recovered then Error Msg.Retry
  else if not (Filestore.file_exists k.store fid) then
    Error (Msg.Refused "not found")
  else Ok (replica_snapshot k fid)

let ss_replica_versions k ~vid =
  if not k.recovered then Error Msg.Retry
  else
    match Filestore.volume k.store ~vid with
    | None -> Error (Msg.Refused "volume not hosted")
    | Some vol ->
      Ok
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
    Error (Msg.Refused "not a replica host")
  else if len <= 0 then Ok (Bytes.create 0)
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
      Ok data
    in
    if Status.state k.repl vid = Status.Fresh then serve ~degraded:false
    else begin
      let primary = storage_site k.cl fid in
      if primary <> k.site && Transport.reachable k.cl.net k.site primary then
        Error Msg.Retry
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

let encode_migration proc txn = Marshal.to_string { m_proc = proc; m_txn = txn } []

(* [pid]'s record if it runs at this site and is not mid-migration. *)
let running_here k pid =
  match Proc_table.find k.procs pid with
  | Some p when p.Process.status <> Process.In_transit -> Some p
  | Some _ | None -> None

(* Cascade abort (§4.3): roll back the member's files, kill its fiber
   (unless spared), recurse to its children, and when the top-level
   process is reached finish the whole transaction. *)
let abort_member k ~txid ~spare ~reason (p : Process.t) =
  let cl = k.cl in
  let pid = p.Process.pid in
  (* Children first — they may be local or remote. *)
  Pid.Set.iter
    (fun child ->
      ignore (abort_tree cl ~src:k.site ~txid ~spare ~reason child))
    p.Process.children;
  (* Roll back this member's modified records and release its locks;
     each storage site also cancels the transaction's queued waits. *)
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

(* The abort at the transaction's home, the site of its top-level process
   [top], one at a time: a request while one is in flight waits for it,
   and finishes the job if that abort died part-way (its fiber killed). A
   request for a transaction no longer here counts nothing. *)
let rec abort_home k ~txid ~spare ~reason top =
  match Hashtbl.find_opt k.aborts txid with
  | Some finished ->
    Engine.await finished;
    abort_home k ~txid ~spare ~reason top
  | None when Txn_state.find k.txns txid = None -> ()
  | None ->
    let finished = Engine.Ivar.create () in
    Hashtbl.replace k.aborts txid finished;
    Fun.protect
      ~finally:(fun () ->
        Hashtbl.remove k.aborts txid;
        ignore (Engine.try_fill k.engine finished ()))
    @@ fun () ->
    Stats.incr (stats k) "txn.abort_requests";
    count_abort k.cl reason;
    abort_member k ~txid ~spare ~reason top

(* Local sweep used by Abort_phase2: roll back everything this site holds
   for the transaction, prepared or not. *)
let ss_abort2 k ~txid ~files =
  leave_doubt k txid;
  let owner = Owner.Transaction txid in
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
      release_local k fid ~owner ~cancel:true)
    fids;
  (* Under dynamic placement the retained locks may live at a migrated-to
     owner: chase the role and release there too. *)
  List.iter
    (fun fid -> release_at_owner k fid ~owner ~cancel:true)
    (List.sort_uniq File_id.compare (files @ prepared_before))

let ss_commit2 k ~txid ~files =
  leave_doubt k txid;
  let owner = Owner.Transaction txid in
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
  batch_iter k ~name:"repl-commit2"
    (fun (it : Intentions.t) ->
      propagate_replicas k ~indices:(Intentions.page_indices it)
        it.Intentions.fid)
    intentions;
  with_span k ~cat:"lock" "lock.release" @@ fun () ->
  let fids = List.sort_uniq File_id.compare (files @ prepared) in
  List.iter (fun fid -> release_local k fid ~owner ~cancel:false) fids;
  List.iter (fun fid -> release_at_owner k fid ~owner ~cancel:false) fids

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
        rpc ~batched:true cl ~src:k.site ~dst:a
          (Msg.Vote_2a { txid; participant = k.site; vote; ballot = 0; participants })
      with
      | Ok v -> if v = vote then incr registered
      | Error _ -> ()
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
           match rpc ~batched:true cl ~src:k.site ~dst:a (Msg.Decision_query { txid }) with
           | Ok registered -> results.(i) <- Some registered
           | Error _ -> ())
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
             ignore (rpc ~batched:true cl ~src:k.site ~dst:a (Msg.Acceptor_forget { txid })))
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
        obs k (Obs.Commit { txid });
        ss_commit2 k ~txid ~files:[]
      end
    | `Abort ->
      if Participant.is_prepared k.participant txid then begin
        Stats.incr (stats k) "pcommit.resolved_abort";
        count_abort cl Coordinator_lost;
        obs k (Obs.Abort { txid });
        ss_abort2 k ~txid ~files:[]
      end
    | `Unknown ->
      (* Leave the prepared state (and the gauge) in place: the liveness
         checker reports us as blocked, which is exactly what an
         unlearnable decision means. *)
      ()
  end

(* {1 Two-phase commit (§4.2) and its replay (§4.4)}

   The coordinator and its recovery make the same decisions: the helpers
   below are that one copy. *)

(* Group [(fid, site)] pairs by site. Sites come out in reverse order of
   first appearance, and each site's files in reverse order. *)
let group_by_site pairs =
  List.fold_left
    (fun acc (fid, s) ->
      match List.assoc_opt s acc with
      | Some r ->
        r := fid :: !r;
        acc
      | None -> (s, ref [ fid ]) :: acc)
    [] pairs
  |> List.map (fun (s, r) -> (s, !r))

(* The outcome of a transaction its votes or log did not decide: abort
   under 2PC (presumed abort, §4.4); under Paxos Commit, whatever the
   acceptor set holds — the same function every resolver applies — and
   [None] while too few acceptors are reachable to tell. *)
let undecided_outcome k ~txid ~participants =
  match paxos_f k.cl with
  | None -> Some false
  | Some f -> (
    match pcommit_read_decision k ~txid ~f ~hint:participants with
    | `Commit -> Some true
    | `Abort -> Some false
    | `Unknown ->
      Stats.incr (stats k) "pcommit.coord_unresolved";
      None)

(* Phase 2: send the decision to every participant site, and once all
   have acked, drop the coordinator log record (it is retained until
   commit/abort processing has completed everywhere, §4.4) and the
   acceptors' votes. *)
let phase2_fanout k ~txid ~committed ~attempts ~batched by_site =
  let cl = k.cl in
  let all_acked = ref true in
  List.iter
    (fun (s, fs) ->
      let msg =
        if committed then Msg.Commit_phase2 { txid; files = fs }
        else Msg.Abort_phase2 { txid; files = fs }
      in
      match
        rpc_retry ~batched ~attempts ~backoff_us:2_000_000 cl
          ~retry:(fun _ -> true) ~src:k.site ~dst:s msg
      with
      | Ok () -> ()
      | Error _ -> all_acked := false)
    by_site;
  if !all_acked then begin
    Coord_log.finished k.coord ~txid;
    pcommit_forget k ~txid
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
        group_by_site files |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      (* Step 1 (Figure 5): the coordinator log, status unknown. *)
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
                       rpc ~batched:true cl ~src:k.site ~dst:s
                         (Msg.Prepare
                            {
                              txid;
                              coordinator_site = k.site;
                              files = fs;
                              participants;
                            })
                     with
                     | Ok vote -> vote
                     | Error _ -> false (* a failed prepare is a no vote *)
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
          else undecided_outcome k ~txid ~participants:(List.map fst by_site)
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
        Aborted
      | Some all_prepared ->
      let status : Log_record.status =
        if all_prepared then Log_record.Committed else Log_record.Aborted
      in
      (* The outcome event must be recorded at the decision point itself,
         before any injected crash, or the checker would misclassify a
         durably committed transaction as unresolved. *)
      obs k (if all_prepared then Obs.Commit { txid } else Obs.Abort { txid });
      cl.hooks.on_decided txid status;
      let p2ctx = wire_ctx cl in
      let phase2 () =
        with_span k ?parent:p2ctx ~cat:"txn" "2pc.phase2" @@ fun () ->
        phase2_fanout k ~txid ~committed:all_prepared ~attempts:8
          ~batched:true by_site
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
    (match Hashtbl.find_opt cl.txn_tops txid with
    | None -> ()
    | Some top ->
      let files =
        File_id.Set.elements p.Process.file_list
        |> List.map (fun fid -> (fid, storage_site cl fid))
      in
      (* The merge is NOT idempotent (a duplicate double-counts the
         member's files), and this loop retries across lost replies — so
         under the chaos layer every attempt must carry the SAME request
         id: allocate it once, out here. A destination that already
         executed the merge then answers the retry from its reply cache
         instead of merging again. *)
      let rid =
        match cl.cfg.Config.net_faults with
        | Some _ -> Some (rid_alloc cl.ks.(src))
        | None -> None
      in
      let rec send_merge tries =
        if tries > 50 then ()
        else
          match locate_process cl ~src top with
          | None -> ()
          | Some dst -> (
            match
              rpc ?rid cl ~src ~dst (Msg.Merge_file_list { top; txid; files })
            with
            | Ok () -> ()
            | Error Msg.Retry ->
              Stats.incr (Engine.stats cl.c_engine) "merge.retries";
              Engine.sleep 2_000;
              Hashtbl.remove cl.locations top;
              send_merge (tries + 1)
            | Error (Msg.Redirect _ | Msg.Refused _ | Msg.Net _) ->
              Engine.sleep 2_000;
              send_merge (tries + 1))
      in
      send_merge 0;
      Option.iter (rid_done cl.ks.(src)) rid);
    registry_remove_member cl txid p.Process.pid
  | Some _ | None -> ());
  (* Channel cleanup: release process-owned locks, commit conventional
     (non-transaction) modifications — the base system's default atomic
     file update on close — and drop open references. *)
  List.sort_uniq File_id.compare
    (List.map (fun c -> c.Process.fid) p.Process.channels)
  |> List.map (fun fid -> (fid, storage_site cl fid))
  |> group_by_site
  |> List.iter (fun (s, fids) ->
         ignore
           (rpc cl ~src ~dst:s
              (Msg.Proc_exit_cleanup { pid = p.Process.pid; fids })))

let ss_proc_exit_cleanup k ~pid ~fids =
  let owner = Owner.Process pid in
  List.iter
    (fun fid ->
      (match lock_table k fid with
      | Some table -> Lock_table.release_process table pid
      | None -> ());
      release_at_owner k fid ~owner ~cancel:true;
      if Filestore.is_open k.store fid then begin
        (match commit_owner_updates k fid ~owner with
        | () -> ()
        | exception Denied _ ->
          (* Degraded copy: the exiting process's uncommitted bytes
             cannot become a new version — discard them. *)
          Filestore.abort k.store fid ~owner;
          obs k (Obs.File_abort { owner; fid }));
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
  ( Hashtbl.length k.doubted,
    Hashtbl.fold
      (fun _ entered oldest -> Int.max oldest (now - entered))
      k.doubted 0 )

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
    | Ok s -> Hreport.Healthy s
    | Error _ -> Hreport.Unreachable { u_site = dst }

let health_poll_all cl ~src =
  List.init cl.cfg.Config.n_sites (fun dst -> health_poll cl ~src ~dst)

let health_tick cl hp =
  let e = cl.c_engine in
  let now = Engine.now e in
  Hsampler.tick hp.hp_sampler ~now_us:now;
  let st = Engine.stats e in
  let last s =
    match Hseries.last s with Some p -> p.Hseries.p_value | None -> 0
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
      Hrules.in_site = -1;
      in_now_us = now;
      in_in_doubt = 0;
      in_in_doubt_max_age_us = 0;
      in_lock_wait_p99_us = last hp.hp_lock_wait_p99;
      in_retries = last hp.hp_retries;
      in_migrations = last hp.hp_migrations;
      in_dedup_entries = 0;
      in_dedup_capacity = 1;
      in_degraded_copies = 0;
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
            Hrules.in_site = k.site;
            in_now_us = now;
            in_in_doubt = in_doubt;
            in_in_doubt_max_age_us = max_age;
            in_lock_wait_p99_us = 0;
            in_retries = 0;
            in_migrations = 0;
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
    let sp = Hsampler.create ~window_us () in
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
    let series name = Option.get (Hsampler.find sp name) in
    let hp =
      {
        hp_sampler = sp;
        hp_site_rules = Array.init cl.cfg.Config.n_sites (fun _ -> Hrules.create ());
        hp_cluster_rules = Hrules.create ();
        hp_lock_wait_p99 = series "lock_wait_p99_us";
        hp_retries = series "retries";
        hp_migrations = series "migrations";
        hp_alarms = [];
      }
    in
    cl.health <- Some hp;
    let rec tick () =
      health_tick cl hp;
      (* Our own event has already been popped: anything still pending is
         real work (cancelled timers are not counted), so keep sampling;
         nothing pending means the run has drained and this was the final
         window. *)
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

(* A handler's refusal: it had no effect, so a later copy of the request
   may run it again. A [Redirect] is an answer the reply cache keeps. *)
let refused = function
  | Msg.Failed (Msg.Retry | Msg.Refused _ | Msg.Net _) -> true
  | Msg.Value _ | Msg.Failed (Msg.Redirect _) -> false

let rec handle_msg : type r. t -> src:Site.t -> r Msg.t -> (r, Msg.error) result =
 fun k ~src msg ->
  let open Msg in
  if not k.alive then Error (Refused "site down")
  else begin
    try
      match msg with
      | Ping -> Ok ()
      | Health_query -> Ok (health_report k)
      | Open { fid } ->
        Filestore.open_file k.store fid;
        ignore (ensure_table k fid);
        Ok ()
      | Close { fid; owner; commit_on_close } ->
        if commit_on_close then commit_owner_updates k fid ~owner;
        Filestore.close_file k.store fid;
        Ok ()
      | Read { fid; reader; pid; pos; len } ->
        Ok (ss_read k ~fid ~reader ~pid ~pos ~len)
      | Read_locked { fid; reader; pid; pos; len } ->
        (* The §3.3 implicit Shared lock that [ss_read] acquires for a
           transaction reader is retained until commit, so the client
           caches it: the lock-then-read pair is one round trip. *)
        let data = ss_read k ~fid ~reader ~pid ~pos ~len in
        (match reader with
        | Owner.Transaction _ -> Stats.incr (stats k) "lock.piggyback"
        | Owner.Process _ -> ());
        Ok data
      | Write { fid; owner; pid; pos; data } ->
        ss_write k ~fid ~owner ~pid ~pos ~data;
        Ok ()
      | Lock { fid; owner; pid; mode; range; non_transaction; wait } -> (
        match lock_route k fid with
        | `Retry -> Error Retry
        | `Redirect d -> Error (Redirect d)
        | `Here -> (
          (* The streak policy may hand the role to [src] right here; the
             requester then retries against its own site. *)
          if sharded k.cl then maybe_shard_migrate k fid ~src;
          if sharded k.cl && not (Hashtbl.mem k.shard_owned fid) then
            match Hashtbl.find_opt k.shard_hints fid with
            | Some d -> Error (Redirect d)
            | None -> Error Retry
          else
            match
              grant_lock k ~fid ~owner ~pid ~mode ~range ~non_transaction ~wait
            with
            | `Granted ->
              if sharded k.cl then begin
                count_shard_grant k ~src;
                Ok Granted
              end
              else if k.cl.cfg.Config.prefetch && src <> k.site then begin
                (* §5.2: piggyback the locked range's data on the grant, in
                   anticipation of its use at the requesting site. *)
                Stats.incr (stats k) "prefetch.grants";
                let data =
                  Filestore.read k.store fid ~pos:(Byte_range.lo range)
                    ~len:(Byte_range.len range)
                in
                Ok (Granted_data data)
              end
              else Ok Granted
            | `Conflict owners -> Ok (Conflict owners)
            | `Cancelled -> Error (Refused "lock cancelled")
            | `Timeout -> Error (Refused "lock timeout")))
      | Lock_append { fid; owner; pid; len; mode; non_transaction } ->
        Ok (ss_lock_append k ~fid ~owner ~pid ~len ~mode ~non_transaction)
      | Unlock { fid; owner; pid; range } -> (
        match lock_route k fid with
        | `Retry -> Error Retry
        | `Redirect d -> Error (Redirect d)
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
          Ok ())
      | Commit_file { fid; owner } ->
        commit_owner_updates k fid ~owner;
        Ok ()
      | Abort_file { fid; owner } ->
        if Filestore.is_open k.store fid then begin
          Filestore.abort k.store fid ~owner;
          obs k (Obs.File_abort { owner; fid })
        end;
        release_local k fid ~owner ~cancel:true;
        release_at_owner k fid ~owner ~cancel:true;
        Ok ()
      | File_size { fid } -> Ok (Filestore.size k.store fid)
      | Create_file { vid } ->
        ensure_writable_vid k vid;
        let fid = Filestore.create_file k.store ~vid in
        (* Seed the secondaries with the (empty) version-1 file so later
           per-commit deltas apply without a gap. *)
        propagate_replicas k ~initial:true fid;
        Ok fid
      | Member_join { top; txid } -> (
        match (running_here k top, Txn_state.find k.txns txid) with
        | Some _, Some _ ->
          Txn_state.member_joined k.txns txid;
          Ok ()
        | _ -> Error Retry)
      | Merge_file_list { top; txid; files } -> (
        match (running_here k top, Txn_state.find k.txns txid) with
        | Some _, Some txn ->
          Txn_state.merge_files txn files;
          Txn_state.member_exited k.txns txid;
          txn_ready_check k txn;
          Ok ()
        | _ ->
          (* Not here, or mid-migration: bounce for retry (§4.1). *)
          Error Retry)
      | Proc_arrive { payload } ->
        let m : migration = Marshal.from_string payload 0 in
        m.m_proc.Process.status <- Process.Running;
        m.m_proc.Process.site <- k.site;
        Proc_table.insert k.procs m.m_proc;
        (match m.m_txn with Some txn -> Txn_state.adopt k.txns txn | None -> ());
        Ok ()
      | Proc_exit_cleanup { pid; fids } ->
        ss_proc_exit_cleanup k ~pid ~fids;
        Ok ()
      | Prepare { txid; coordinator_site; files; participants } ->
        Stats.incr (stats k) "2pc.prepares";
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
          with
          | Engine.Killed as e -> raise e
          | _ -> false
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
        Ok vote
      | Commit_phase2 { txid; files } ->
        (* Applying phase 2 before the participant pass rebuilt prepared
           state would ack a no-op — and let the coordinator forget a
           decision our in-doubt resolution still needs. *)
        if not k.par_ready then Error Retry
        else begin
          ss_commit2 k ~txid ~files;
          Ok ()
        end
      | Abort_phase2 { txid; files } ->
        if not k.par_ready then Error Retry
        else begin
          ss_abort2 k ~txid ~files;
          Ok ()
        end
      | Abort_tree { txid; pid; spare; reason } -> (
        match running_here k pid with
        | Some p ->
          (if p.Process.top_level then abort_home else abort_member)
            k ~txid ~spare ~reason p;
          Ok true
        | None -> Ok false)
      | Query_outcome { txid } ->
        (* Recovery in progress is transient: bounce for retry like every
           other recovering-site path, instead of a hard error the asker
           would misread as a permanent failure. *)
        if not k.coord_ready then Error Retry
        else Ok (Coord_log.outcome k.coord txid)
      | Vote_2a { txid; participant; vote; ballot; participants } ->
        if not k.acc_ready then Error Retry
        else begin
          Stats.incr (stats k) "pcommit.votes_seen";
          Ok
            (Pc_acceptor.register k.pc_acceptor ~txid ~participant ~vote
               ~ballot ~participants)
        end
      | Decision_query { txid } ->
        if not k.acc_ready then Error Retry
        else Ok (Pc_acceptor.votes_for k.pc_acceptor txid)
      | Find_process { pid } -> Ok (Option.is_some (running_here k pid))
      | Replica_commit { update } -> ss_replica_commit k ~src update
      | Replica_pull { fid } -> ss_replica_pull k ~fid
      | Replica_versions { vid } -> ss_replica_versions k ~vid
      | Replica_read { fid; reader; pid; pos; len } ->
        ss_replica_read k ~fid ~reader ~pid ~pos ~len
      | Acceptor_forget { txid } ->
        if not k.acc_ready then Error Retry
        else begin
          Pc_acceptor.forget k.pc_acceptor txid;
          Stats.incr (stats k) "pcommit.forgotten";
          Ok ()
        end
      | Shard_lookup { fid } -> (
        match dir_here k fid with
        | None -> Error (Refused "not the directory site")
        | Some dir ->
          let owner, epoch, prev = dir_lookup k dir fid in
          Ok { owner; epoch; prev })
      | Shard_claim { fid; new_owner; from_epoch } -> (
        match dir_here k fid with
        | None -> Error (Refused "not the directory site")
        | Some dir -> (
          match
            dir_claim_here k dir fid ~new_owner ~from_epoch ~claimer:src
          with
          | Ok epoch -> Ok { owner = new_owner; epoch; prev = src }
          | Error (owner, epoch) ->
            let _, _, prev =
              Shard_dir.lookup dir fid ~default:(shard_default_owner k.cl fid)
            in
            Ok { owner; epoch; prev }))
      | Shard_migrate { fid; epoch; payload } ->
        if not (sharded k.cl) then Error (Refused "dynamic lock placement off")
        else begin
          let known =
            match Hashtbl.find_opt k.shard_epochs fid with
            | Some e -> e
            | None -> -1
          in
          if epoch = known && Hashtbl.mem k.shard_owned fid then
            (* The transfer already landed and this is a retransmitted or
               duplicated copy of the same envelope (the ack was lost in
               flight). Confirm without reinstalling: the table may have
               granted new locks since, and the stale payload would wipe
               them. *)
            Ok ()
          else if epoch <= known then begin
            (* A straggler transfer from a superseded owner: fencing it
               here is what makes the CAS race safe. *)
            Stats.incr (stats k) "shard.fenced";
            Error (Refused "stale shard transfer fenced")
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
            Ok ()
          end
        end
      | Shard_migrate_req { fid; dst } ->
        if not (sharded k.cl) then Error (Refused "dynamic lock placement off")
        else (
          match shard_route k fid with
          | `Retry -> Error Retry
          | `Redirect d -> Error (Redirect d)
          | `Here ->
            if dst <> k.site then shard_migrate k fid ~dst;
            Ok ())
      | Shard_handoff { fid } ->
        (* Hand-off handshake (see Msg): true while a transfer we
           initiated is still in flight — the old table's owners are then
           still live — false once it settled (delivered, or stranded
           owners aborted before the window closed). *)
        Ok (Hashtbl.mem k.shard_migrating fid)
      | Ensure_lock { fid; owner; pid; range; write; momentary; dirty } -> (
        if not (sharded k.cl) then Error (Refused "dynamic lock placement off")
        else
          match lock_route k fid with
          | `Retry -> Error Retry
          | `Redirect d -> Error (Redirect d)
          | `Here ->
            let granted () = count_shard_grant k ~src in
            if momentary then
              Ok
                (snd
                   (momentary_grant k ~fid ~owner ~pid ~range ~write ~granted))
            else begin
              let table =
                txn_lock_grant k ~fid ~owner ~pid ~range ~write ~granted
              in
              (* Rule 2, split across sites: the storage site saw dirty
                 bytes under this range; the lock must be retained here
                 whatever its mode. *)
              if dirty then Lock_table.mark_retained table owner ~range;
              Ok []
            end)
      | Release_locks { fid; owner; pid; ranges; cancel } -> (
        if not (sharded k.cl) then Error (Refused "dynamic lock placement off")
        else
          match shard_route k fid with
          | `Retry -> Error Retry
          | `Redirect d -> Error (Redirect d)
          | `Here ->
            (match (ranges, lock_table k fid) with
            | Some rs, Some table ->
              List.iter
                (fun range -> Lock_table.unlock table ~owner ~pid ~range)
                rs
            | Some _, None -> ()
            | None, _ -> release_local k fid ~owner ~cancel);
            Ok ())
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
          Array.make (List.length envs) (Failed (Refused "batch member failed"))
        in
        par_iter k ~name:"batch-member"
          (List.mapi (fun i e () -> results.(i) <- handle k ~src e) envs);
        Ok (Array.to_list results)
    with
    | Denied reason -> Error (Refused reason)
    | Filestore.Conflicting_write (_, a, b) ->
      Error (Refused (Fmt.str "conflicting write %a vs %a" Owner.pp a Owner.pp b))
    | Not_found -> Error (Refused "not found")
    | Invalid_argument m -> Error (Refused m)
  end

(* Unwrap the envelope and, when a collector is installed, run the
   dispatch inside a server-side span parented under the remote caller's
   span (carried in [env.ctx]) — this is the edge that stitches a
   transaction's tree across sites. *)
and handle_env k ~src (env : Msg.env) =
  let (Msg.Any msg) = env.Msg.payload in
  match k.cl.otracer with
  | None -> Msg.pack msg (handle_msg k ~src msg)
  | Some otr ->
    if not k.alive then Msg.Failed (Msg.Refused "site down")
    else
      Otrace.with_span ?parent:env.Msg.ctx otr ~site:k.site ~cat:"rpc"
        ~args:[ ("src", string_of_int src) ]
        (Msg.label msg)
        (fun () -> Msg.pack msg (handle_msg k ~src msg))

(* Run the handler for a rid-tagged request and, when it produced a
   cacheable reply (i.e. it actually executed and had its effect), mark
   the execution for the checker's exactly-once oracle. *)
and exec_rid k ~src (env : Msg.env) (rid : Msg.rid) =
  let r = handle_env k ~src env in
  if not (refused r) then begin
    let (Msg.Any msg) = env.Msg.payload in
    obs k
      (Obs.Rpc_exec
         {
           client = rid.Msg.r_site;
           inc = rid.Msg.r_inc;
           seq = rid.Msg.r_seq;
           site_inc = k.incarnation;
           label = Msg.label msg;
         })
  end;
  r

(* Exactly-once dispatch for rid-tagged requests (locus_chaos). Three
   layers, in order:
   - the per-client ack watermark fences late wire copies of requests the
     client has already finished ("stale"): they must neither execute nor
     be answered from a cache entry (it was evicted), and refusing them
     is safe because the client is, by definition, gone;
   - the reply cache answers duplicates of a finished request ([Cached])
     and parks duplicates of one still executing ([Running]) on its ivar,
     so concurrent wire copies share the one execution;
   - otherwise this copy is the one that executes. Only replies that had
     an effect are cached (and capped FIFO-style); refusals leave no
     entry so a retry after a refusal runs the handler again. *)
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
    Msg.Failed (Msg.Refused "stale request")
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
      (* Not cached either when the client gave up and acked past us
         while we ran. *)
      if refused r || rid.Msg.r_seq <= acked_now then
        Hashtbl.remove k.reply_cache key
      else begin
        Hashtbl.replace k.reply_cache key (Cached r);
        Queue.push key k.reply_cache_q;
        while Queue.length k.reply_cache_q > reply_cache_capacity do
          let old = Queue.pop k.reply_cache_q in
          match Hashtbl.find_opt k.reply_cache old with
          | Some (Cached _) -> Hashtbl.remove k.reply_cache old
          | Some (Running _) | None -> ()
        done
      end;
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
  Hashtbl.reset k.aborts;
  k.scanning <- false;
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
  List.iter
    (fun (c : Log_record.coordinator) ->
      let txid = c.Log_record.txid in
      let by_site = group_by_site c.Log_record.files in
      let decision =
        match c.Log_record.status with
        | Log_record.Committed -> Some true
        | Log_record.Aborted -> Some false
        | Log_record.Unknown ->
          (* Under Paxos Commit an Unknown record does not mean abort: the
             votes may have reached their quorums (and participants may
             already have resolved commit from them while we were down). *)
          undecided_outcome k ~txid ~participants:(List.map fst by_site)
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
        phase2_fanout k ~txid ~committed ~attempts:5 ~batched:false by_site;
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
            match
              rpc_retry ~attempts:6 ~backoff_us:1_000_000 cl
                ~retry:(fun e ->
                  (* The coordinator is up but its own recovery has not
                     replayed the log yet: bounce, don't misread it as a
                     permanent failure. *)
                  let bounce = e = Msg.Retry in
                  if bounce then Stats.incr (stats k) "recovery.outcome_retries";
                  bounce)
                ~src:k.site ~dst:coord_site (Msg.Query_outcome { txid })
            with
            | Ok (Some Log_record.Committed) -> ss_commit2 k ~txid ~files:[]
            | Ok (Some Log_record.Aborted | None) ->
              (* Presumed abort: a coordinator with no record must have
                 aborted (or finished long ago — in which case it had already
                 heard our ack, impossible while we are in doubt). *)
              ss_abort2 k ~txid ~files:[]
            | Ok (Some Log_record.Unknown) | Error _ ->
              (* Undecided, or no answer: ask again later. *)
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
    let cache = Cache.create ~capacity_pages:128 engine in
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
        if cfg.Config.batch_window_us > 0 then begin
          Volume.set_group_commit vol ~site:s
            ~window_us:cfg.Config.batch_window_us;
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
      aborts = Hashtbl.create 8;
      scanning = false;
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
  if cfg.Config.batch_window_us > 0 then
    Transport.set_batch net ~window_us:cfg.Config.batch_window_us
      ~wrap:(fun envs -> Msg.envelope (Msg.Batch envs))
      ~unwrap:(fun r -> Result.to_option (Msg.unpack (Msg.Batch []) r))
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
