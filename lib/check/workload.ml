module L = Locus_core.Locus
module Api = Locus_core.Api
module K = Locus_core.Kernel
module Transport = Locus_net.Transport
module Opmix = Locus_load.Opmix
module Bank = Locus_load.Bank

type txn_spec = { site : int; at_us : int; ops : Opmix.op list }
type spec = { n_sites : int; n_records : int; txns : txn_spec list }

type crash = { victim : int; after_decides : int; restart_delay : int }

type fault =
  | Crash of crash
  | Partition of { victim : int; after_decides : int; heal_delay : int }
  | Kill_coordinator of { after_decides : int }
  | Migrate_owner of { after_decides : int }

type commit_protocol = [ `Two_phase | `Paxos of int ]

let path = "/check/records"

let gen ~seed ?(sites = 2) ?(txns = 4) ?(ops = 4) ?(records = 4) () =
  let sites = max 1 sites
  and txns = max 0 txns
  and ops = max 0 ops
  and records = max 1 records in
  let rng = Prng.create ~seed in
  let txns =
    List.init txns (fun _ ->
        let site = Prng.int rng sites in
        let ops =
          List.init ops (fun _ ->
              let r = Prng.int rng records in
              Opmix.(if Prng.bool rng then Read r else Update r))
        in
        { site; at_us = 0; ops })
  in
  { n_sites = sites; n_records = records; txns }

(* Open-loop variant: the same bank-style transactions, but each stamped
   with a Poisson arrival instant ([at_us]) and drawing its records from
   a Zipfian popularity law — locus_load's generators driving the
   checker's workload shape. The driver releases each transaction at its
   instant whether or not earlier ones have finished, so a sweep over
   these specs proves 1SR under open-loop pressure, not just under the
   closed-loop fork-then-wait schedule. *)
let gen_open ~seed ?(sites = 2) ?(txns = 4) ?(ops = 4) ?(records = 4) ?flash
    ~rate () =
  let sites = max 1 sites
  and txns = max 0 txns
  and n_ops = max 1 ops
  and records = max 1 records in
  let rng = Prng.create ~seed in
  let shape =
    let base = Locus_load.Arrival.constant (Float.max 1e-6 rate) in
    match flash with
    | None -> base
    | Some (at_us, len_us, mult) ->
      {
        base with
        Locus_load.Arrival.flash_at_us = at_us;
        flash_len_us = len_us;
        flash_mult = mult;
      }
  in
  let arr = Locus_load.Arrival.create ~prng:rng shape in
  let zipf = Locus_load.Zipf.create ~s:1.0 ~n:records () in
  let mix =
    Opmix.make ~read_frac:0.5 ~ops_min:n_ops ~ops_max:n_ops ()
  in
  let rec build acc k now =
    if k = 0 then List.rev acc
    else
      let at = Locus_load.Arrival.next_after arr now in
      let site = Prng.int rng sites in
      let ops = Opmix.gen_txn mix rng zipf in
      build ({ site; at_us = at; ops } :: acc) (k - 1) at
  in
  { n_sites = sites; n_records = records; txns = build [] txns 0 }

let pp_txn_spec ppf t =
  if t.at_us > 0 then
    Fmt.pf ppf "@[site %d @@%dus: %a@]" t.site t.at_us
      (Fmt.list ~sep:Fmt.sp Opmix.pp_op) t.ops
  else Fmt.pf ppf "@[site %d: %a@]" t.site (Fmt.list ~sep:Fmt.sp Opmix.pp_op) t.ops

let pp ppf s =
  Fmt.pf ppf "@[<v>%d sites, %d records@,%a@]" s.n_sites s.n_records
    (Fmt.list ~sep:Fmt.cut pp_txn_spec)
    s.txns

let install_fault cl ~n_sites ?(grace = 0) fault =
  let decides = ref 0 in
  (K.hooks cl).K.on_decided <-
    (fun txid _status ->
      incr decides;
      match fault with
      | Crash c when !decides = c.after_decides ->
          Bank.outage cl (`Crash c.victim) ~for_us:c.restart_delay
      | Partition { victim; after_decides; heal_delay }
        when !decides = after_decides ->
          Bank.outage cl (`Partition victim) ~for_us:heal_delay
      | Kill_coordinator { after_decides } when !decides = after_decides ->
          (* The worst 2PC window: the decision is durable but phase 2 was
             never sent, and the coordinator NEVER comes back. The hook
             runs inside the committing fiber, which dies with its site,
             so no phase-2 message escapes. Under 2PC every participant of
             this transaction stays in-doubt forever; under Paxos Commit
             they must all still decide — that is the liveness property. *)
          if grace > 0 then
            (* Health-armed runs: keep the engine (and with it the windowed
               sampler) alive long enough for the stranded participants'
               in-doubt age to cross the watchdog threshold — the alarm
               the liveness oracle then demands. Scheduled BEFORE the
               crash: the hook's own fiber dies with its site. *)
            Engine.schedule ~delay:grace (K.engine cl) (fun () -> ());
          K.crash_site cl (Txid.site txid)
      | Migrate_owner { after_decides } when !decides >= after_decides -> (
          (* Yank the shared file's lock-manager role to a rotating site
             at every decide point from the Nth on: in-flight phase 2,
             retained locks, and later acquisitions must all survive the
             hand-offs (and the epoch-fence oracle watches every grant).
             The hook runs inside the deciding fiber, so the migration
             RPCs get their own fiber. *)
          match K.lookup cl path with
          | None -> ()
          | Some fid ->
              let dst = !decides mod n_sites in
              ignore
                (Engine.spawn ~name:"wl-migrate" ~site:0 (K.engine cl)
                   (fun () -> K.force_migrate cl ~src:0 fid ~dst)))
      | Crash _ | Partition _ | Kill_coordinator _ | Migrate_owner _ -> ())

let run ?fault ?(replicas = 1) ?(batch_window = 0) ?(commit = `Two_phase)
    ?(shards = 0) ?policy ?net_faults ?(health = 0) ?(seed = 0) spec =
  let sim =
    let base =
      if replicas > 1 then
        K.Config.with_replication ~n_sites:spec.n_sites ~factor:replicas
      else K.Config.default ~n_sites:spec.n_sites
    in
    let config =
      if batch_window > 0 then K.Config.with_batching ~window_us:batch_window base
      else base
    in
    let config =
      match (commit : commit_protocol) with
      | `Two_phase -> config
      | `Paxos f -> K.Config.with_paxos ~f config
    in
    let config =
      if shards > 0 then K.Config.with_shards ~shards ?policy config else config
    in
    let config =
      match net_faults with
      | Some (f : Transport.faults) -> { config with K.Config.net_faults = Some f }
      | None -> config
    in
    let config =
      if health > 0 then K.Config.with_health ~window_us:health config
      else config
    in
    L.make ~seed ~config ~n_sites:spec.n_sites ()
  in
  let hist = History.create () in
  History.attach hist sim.L.cluster;
  let grace =
    (* With the watchdog armed, a coordinator kill must leave the sampler
       running past the in-doubt age threshold plus a couple of windows,
       or the alarm the sweep asserts could never fire. *)
    if health > 0 then
      Locus_health.Rules.default.in_doubt_age_us + (3 * health) + 500_000
    else 0
  in
  (match fault with
  | Some f -> install_fault sim.L.cluster ~n_sites:spec.n_sites ~grace f
  | None -> ());
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 ~name:"wl-driver" (fun env ->
         Bank.create env path ~vid:1 ~records:spec.n_records;
         (* Open-loop specs stamp arrival instants: the driver sleeps up
            to each transaction's [at_us] (measured from this point, after
            the records exist) and forks without waiting on predecessors.
            All-zero stamps — every closed-loop spec — never sleep, so the
            classic schedule is byte-identical. *)
         let eng = K.engine sim.L.cluster in
         let epoch = Engine.now eng in
         let pids =
           List.mapi
             (fun i t ->
               (if t.at_us > 0 then
                  let dt = epoch + t.at_us - Engine.now eng in
                  if dt > 0 then Engine.sleep dt);
               Api.fork env ~site:t.site
                 ~name:(Printf.sprintf "wl-txn-%d" i)
                 (fun env ->
                   let ops = List.map (fun op -> (0, op)) t.ops in
                   ignore
                     (Bank.txn ~piggyback:(batch_window > 0) env
                        ~files:[ (0, path) ] ops)))
             spec.txns
         in
         List.iter (fun pid -> Api.wait_pid env pid) pids));
  L.run sim;
  (hist, sim)

(* Liveness oracle, read after {!Locus_core.Locus.run} has drained the
   event queue: prepared transactions still held by live sites are
   participants blocked in-doubt. *)
let blocked sim = K.in_doubt_participants sim.L.cluster
