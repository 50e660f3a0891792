(* locusctl — drive scripted scenarios on a simulated Locus cluster from
   the command line.

     locusctl deadlock --cycle 5
     locusctl explore --seeds 1 --seed 7
     locusctl load --seed 42 --scenario flash-partition
     locusctl info --sites 3

   The bank-transfer, crash-mid-order and DebitCredit workloads are the
   examples (examples/banking.ml, inventory.ml, debit_credit.ml); a
   single generated workload is `explore --seeds 1 --seed N`. Every run
   is deterministic for a given --seed. *)

module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module M = L.Mode
open Cmdliner

let print_summary sim =
  let stats = L.Engine.stats sim.L.engine in
  Fmt.pr "@.--- run summary ---@.";
  Fmt.pr "virtual time: %.2f s@."
    (float_of_int (L.Engine.now sim.L.engine) /. 1_000_000.);
  List.iter
    (fun key ->
      let v = L.Stats.get stats key in
      if v > 0 then Fmt.pr "%-24s %d@." key v)
    [
      "txn.begun"; "txn.committed"; "txn.aborted"; "txn.abort.deadlock";
      "2pc.prepares"; "lock.requests"; "lock.waits"; "lock.implicit";
      "lock.piggyback"; "lock.piggyback_reads"; "deadlock.scans";
      "deadlock.victims"; "proc.forks"; "proc.migrations"; "merge.retries";
      "disk.io.read"; "disk.io.write"; "disk.io.log"; "log.group_forces";
      "log.forces_saved"; "net.msg"; "net.msg_saved"; "rpc.batches";
      "rpc.batched"; "cache.hit"; "cache.miss"; "recovery.replayed_commit";
      "recovery.replayed_abort"; "replica.propagate"; "replica.propagate_miss";
      "replica.apply"; "replica.gaps"; "replica.reconciled";
      "replica.reconcile_passes"; "replica.failover_reads";
      "replica.local_reads";
    ]

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print every observable event (lock, commit, abort, ...) as the \
           kernel emits it.")

let sites_arg =
  Arg.(value & opt int 3 & info [ "sites" ] ~docv:"N" ~doc:"Number of sites.")

(* {1 deadlock} *)

let deadlock seed sites cycle trace expect_resolved =
  let sim = L.make ~seed ~n_sites:sites () in
  (* The kernel's typed event stream, printed as it happens: nothing is
     buffered, so nothing is truncated. *)
  if trace then K.set_observer sim.L.cluster (Some (Fmt.pr "%a@." Locus_core.Obs.pp));
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 ~name:"main" (fun env ->
         let c = Api.creat env "/r" ~vid:1 in
         Api.write_string env c (String.make (64 * cycle) 'i');
         Api.commit_file env c;
         (* Spread the cycle across sites so the wait-for edges the
            detector must assemble are genuinely distributed (§3.1). *)
         let worker i =
           Api.fork env ~site:(i mod sites) ~name:(Printf.sprintf "d%d" i)
             (fun w ->
               Api.begin_trans w;
               Api.seek w c ~pos:(i * 64);
               (match Api.lock w c ~len:64 ~mode:M.Exclusive () with
               | Api.Granted -> ()
               | Api.Conflict _ -> ());
               (* Hold long enough that every worker — including ones
                  forked to remote sites, which pay migration + path
                  lookup latency first — owns its first record before
                  anyone asks for its second, so the cycle closes. *)
               Engine.sleep 500_000;
               Api.seek w c ~pos:(64 * ((i + 1) mod cycle));
               (match Api.lock w c ~len:64 ~mode:M.Exclusive () with
               | Api.Granted -> ()
               | Api.Conflict _ -> ());
               ignore (Api.end_trans w))
         in
         let pids = List.init cycle worker in
         List.iter (Api.wait_pid env) pids));
  L.run sim;
  print_summary sim;
  Fmt.pr "@.--- kernel state (§3.1 interface) ---@.";
  Fmt.pr "%a" Locus_core.Kinfo.pp (Locus_core.Kinfo.snapshot sim.L.cluster);
  if expect_resolved then begin
    let stats = L.Engine.stats sim.L.engine in
    let get k = L.Stats.get stats k in
    let checks =
      [
        ("deadlock.victims >= 1", get "deadlock.victims" >= 1);
        ("txn.abort.deadlock >= 1", get "txn.abort.deadlock" >= 1);
        ( "txn.abort_requests = deadlock.victims",
          get "txn.abort_requests" = get "deadlock.victims" );
        ("txn.committed >= 1", get "txn.committed" >= 1);
        ("no survivors stuck", K.active_transactions sim.L.cluster = []);
      ]
    in
    (* Printed in declaration order: [List.filter] visits the list front
       to back. *)
    let failed =
      List.filter
        (fun (name, ok) ->
          Fmt.pr "expect %-37s %s@." name (if ok then "ok" else "FAILED");
          not ok)
        checks
    in
    if failed <> [] then exit 1
  end

let deadlock_cmd =
  let cycle =
    Arg.(value & opt int 4 & info [ "cycle" ] ~docv:"N" ~doc:"Deadlock cycle size.")
  in
  let expect_resolved =
    Arg.(
      value & flag
      & info [ "expect-resolved" ]
          ~doc:
            "Self-test mode: exit non-zero unless the detector picked at \
             least one victim (deadlock.victims, txn.abort.deadlock), each \
             victim was aborted once (txn.abort_requests), at least one \
             survivor committed, and no transaction is left active.")
  in
  Cmd.v
    (Cmd.info "deadlock" ~doc:"Induce an N-cycle deadlock and watch the resolver.")
    Term.(
      const deadlock $ seed_arg $ sites_arg $ cycle $ trace_arg $ expect_resolved)

(* {1 explore: the Locus_check harness} *)

module Ck = Locus_check

let check_config ?(health_window = 0) ?arrival sites txns ops records replicas
    batch_window fault_every commit shards policy net_faults =
  {
    Ck.Explore.sites = max 2 sites;
    txns;
    ops;
    records;
    replicas = max 1 replicas;
    batch_window = max 0 batch_window;
    fault_every;
    commit;
    shards = max 0 shards;
    policy;
    net_faults;
    health_window = max 0 health_window;
    arrival;
  }

let txns_arg =
  Arg.(value & opt int 4 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per workload.")

let ops_arg =
  Arg.(value & opt int 4 & info [ "ops" ] ~docv:"N" ~doc:"Operations per transaction.")

let records_arg =
  Arg.(value & opt int 4 & info [ "records" ] ~docv:"N" ~doc:"Shared records.")

let fault_every_arg =
  Arg.(
    value & opt (some int) None
    & info [ "fault-every"; "crash-every" ] ~docv:"K"
        ~doc:
          "Inject a fault on every K-th seed, alternating site crash + \
           reboot with network partition + heal.")

let replicas_arg =
  Arg.(
    value & opt int 1
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Copies per volume (>1 enables primary-copy replication with \
           commit propagation).")

let batch_window_arg =
  Arg.(
    value & opt int 0
    & info [ "batch-window" ] ~docv:"US"
        ~doc:
          "Commit-path batching window in virtual microseconds (0 = off): \
           enables group commit, RPC coalescing and piggybacked \
           transactional reads for every checked run.")

let commit_arg =
  Arg.(
    value
    & opt (enum [ ("two_phase", `Two_phase); ("paxos", `Paxos) ]) `Two_phase
    & info [ "commit" ] ~docv:"PROTO"
        ~doc:
          "Atomic-commitment protocol: $(b,two_phase) (default) or \
           $(b,paxos). Under paxos the fault rotation adds permanent \
           coordinator kills and every run is additionally checked for \
           liveness (no participant may end the run blocked in-doubt).")

let paxos_f_arg =
  Arg.(
    value & opt int 1
    & info [ "paxos-f" ] ~docv:"F"
        ~doc:
          "Faults tolerated by Paxos Commit: 2F+1 acceptor sites per \
           transaction (requires --sites >= 2F+1). Only meaningful with \
           --commit paxos.")

let commit_of proto paxos_f : Ck.Workload.commit_protocol =
  match proto with `Two_phase -> `Two_phase | `Paxos -> `Paxos (max 0 paxos_f)

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Enable dynamic lock placement with N directory shards (0 = \
           static placement): lock traffic routes through the shard \
           directory and the lock-manager role migrates toward the \
           traffic per --migrate-policy.")

let policy_conv =
  let parse s =
    match Locus_shard.Policy.of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Locus_shard.Policy.pp)

let migrate_policy_arg =
  Arg.(
    value & opt policy_conv Locus_shard.Policy.default
    & info [ "migrate-policy" ] ~docv:"POLICY"
        ~doc:
          "Migration policy for --shards runs: $(b,never), \
           $(b,threshold:N) (migrate after N consecutive remote \
           acquisitions from one site), or a bare N.")

(* "drop=0.05,dup=0.05,reorder=4,jitter=500" -> Transport.faults; every
   key is optional, unknown keys are errors. *)
let net_faults_conv =
  let parse s =
    let open Locus_net.Transport in
    try
      Ok
        (List.fold_left
           (fun f kv ->
             match String.split_on_char '=' kv with
             | [ "drop"; v ] -> { f with drop = float_of_string v }
             | [ "dup"; v ] -> { f with dup = float_of_string v }
             | [ "reorder"; v ] -> { f with reorder = int_of_string v }
             | [ "jitter"; v ] | [ "jitter_us"; v ] ->
               { f with jitter_us = int_of_string v }
             | _ -> failwith kv)
           no_faults
           (String.split_on_char ',' (String.trim s)))
    with Failure _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad --net-faults %S (want e.g. drop=0.05,dup=0.05,reorder=4)" s))
  in
  let print ppf (f : Locus_net.Transport.faults) =
    Fmt.pf ppf "drop=%g,dup=%g,reorder=%d,jitter=%d" f.drop f.dup f.reorder
      f.jitter_us
  in
  Arg.conv (parse, print)

let net_faults_arg =
  Arg.(
    value & opt (some net_faults_conv) None
    & info [ "net-faults" ] ~docv:"SPEC"
        ~doc:
          "Arm the lossy-network chaos layer for every checked run: \
           $(docv) is a comma list of $(b,drop)=P (loss probability), \
           $(b,dup)=P (duplication probability), $(b,reorder)=N (reorder \
           window in one-way latencies) and $(b,jitter)=US (extra delay \
           bound, virtual µs). Deterministic per seed. Client RPCs switch \
           to retried, rid-tagged sends deduplicated by server reply \
           caches; the checker's duplicate-apply oracle watches every \
           execution.")

let pp_blocked =
  Fmt.list ~sep:Fmt.sp (fun ppf (site, txid) ->
      Fmt.pf ppf "site%d:%a" site Txid.pp txid)

let arrival_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "arrival" ] ~docv:"RATE"
        ~doc:
          "Open-loop workload generation: transactions carry Poisson \
           arrival instants at $(docv)/sec and draw records from a \
           Zipfian popularity law, and the driver releases each at its \
           instant instead of forking everything at once. Default: the \
           classic closed-loop generator.")

let explore seed sites txns ops records replicas batch_window fault_every
    n_seeds mutants commit paxos_f shards policy net_faults health_window
    arrival =
  let cfg =
    check_config ~health_window ?arrival sites txns ops records replicas
      batch_window fault_every (commit_of commit paxos_f) shards policy
      net_faults
  in
  List.iter (fun m -> Fmt.pr "%s@." (Mutant.doc m)) mutants;
  Mutant.with_armed mutants @@ fun () ->
  let t0 = Sys.time () in
  let result =
    Ck.Explore.sweep ~config:cfg ~seeds:(Ck.Explore.seeds ~n:n_seeds ~from:seed) ()
  in
  let dt = Sys.time () -. t0 in
  Fmt.pr
    "checked %d schedules (%d events) in %.2fs cpu = %.1f schedules/s@."
    result.Ck.Explore.checked result.Ck.Explore.events dt
    (float_of_int result.Ck.Explore.checked /. Float.max dt 1e-9);
  Fmt.pr "permitted (§3.4) violations: %d@." result.Ck.Explore.permitted;
  match result.Ck.Explore.failures with
  | [] ->
    Fmt.pr "no unpermitted serializability violations, no blocked participants.@."
  | f :: _ as fs ->
    Fmt.pr "@.%d FAILING SEED(S): %a@." (List.length fs)
      (Fmt.list ~sep:Fmt.sp Fmt.int)
      (List.map (fun f -> f.Ck.Explore.f_seed) fs);
    Fmt.pr "@.first failure (seed %d):@.%a@." f.Ck.Explore.f_seed
      Ck.Checker.pp f.Ck.Explore.f_report;
    (match f.Ck.Explore.f_blocked with
    | [] -> ()
    | bs ->
      Fmt.pr "LIVENESS: participants ended the run blocked in-doubt: %a@."
        pp_blocked bs);
    List.iter (fun v -> Fmt.pr "HEALTH: %s@." v) f.Ck.Explore.f_health;
    let small = Ck.Explore.shrink_failure cfg f in
    Fmt.pr "@.shrunk reproducer (%d txns):@.%a@."
      (List.length small.Ck.Workload.txns)
      Ck.Workload.pp small;
    exit 1

let explore_cmd =
  let n_seeds =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds to sweep.")
  in
  let mutants =
    Arg.(
      value
      & opt_all (enum (List.map (fun m -> (Mutant.name m, m)) Mutant.all)) []
      & info [ "break" ] ~docv:"NAME"
          ~doc:
            "Self-test: arm the named mutant (repeatable) and verify the \
             oracle it targets catches it; the sweep must then fail. \
             $(b,locks) breaks the Figure-1 matrix; $(b,repl) drops commit \
             propagation (use with --replicas >= 2); $(b,paxos) makes \
             acceptors forget votes (use with --commit paxos); $(b,shard) \
             keeps migrated owners granting at the stale epoch (use with \
             --shards > 0); $(b,dedup) bypasses the exactly-once reply \
             cache (use with --net-faults); $(b,health) mutes the watchdog \
             (use with --health and --fault-every). $(b,batch) and \
             $(b,load) target the bench perf gate, not the explorer.")
  in
  let health_window =
    Arg.(
      value & opt ~vopt:100_000 int 0
      & info [ "health" ] ~docv:"US"
          ~doc:
            "Arm the locus_health plane at this sampling window (virtual \
             µs; bare $(b,--health) = 100 ms) and run the health oracles: \
             fault-free seeds must raise no alarm, and — the fault \
             rotation then including coordinator kills even under 2PC — \
             seeds that end blocked in-doubt must have raised \
             $(b,in_doubt_age).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Sweep many seeds, checking every schedule for serializability; on \
          failure, shrink the workload to a minimal reproducer.")
    Term.(
      const explore $ seed_arg $ sites_arg $ txns_arg $ ops_arg $ records_arg
      $ replicas_arg $ batch_window_arg $ fault_every_arg $ n_seeds
      $ mutants $ commit_arg $ paxos_f_arg $ shards_arg
      $ migrate_policy_arg $ net_faults_arg $ health_window $ arrival_arg)

(* {1 repl-status} *)

let print_replica_status cl =
  Fmt.pr "@.--- replica status ---@.";
  List.iter
    (fun v ->
      Fmt.pr "vol%d  primary: site %d@." v.K.rv_vid v.K.rv_primary;
      List.iter
        (fun h ->
          Fmt.pr "  site %d: %s%s%s  versions [%s]@." h.K.rh_site
            (if h.K.rh_alive then "up" else "DOWN")
            (if h.K.rh_primary then ", primary" else "")
            (if h.K.rh_fresh then ", fresh" else ", DEGRADED")
            (String.concat "; "
               (List.map
                  (fun (ino, ver) -> Printf.sprintf "ino%d=v%d" ino ver)
                  h.K.rh_versions)))
        v.K.rv_hosts)
    (K.replica_status cl)

let repl_status seed sites replicas updates crash_primary =
  let sites = max 2 sites in
  let replicas = max 1 replicas in
  let config = K.Config.with_replication ~n_sites:sites ~factor:replicas in
  let sim = L.make ~seed ~config ~n_sites:sites () in
  let cl = sim.L.cluster in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"repl-driver" (fun env ->
         let c = Api.creat env "/repl/demo" ~vid:1 in
         for i = 1 to updates do
           Api.pwrite env c ~pos:0
             (Bytes.of_string (Printf.sprintf "update %04d" i));
           Api.commit_file env c
         done;
         Api.close env c;
         if crash_primary then begin
           let fid = Option.get (K.lookup cl "/repl/demo") in
           let p = K.storage_site cl fid in
           if p <> 0 then begin
             Fmt.pr "crashing primary site %d of /repl/demo@." p;
             K.crash_site cl p
           end
         end));
  L.run sim;
  Fmt.pr "wrote %d committed updates to /repl/demo (vol1)@." updates;
  print_replica_status cl;
  print_summary sim

let repl_status_cmd =
  let updates =
    Arg.(
      value & opt int 5
      & info [ "updates" ] ~docv:"N"
          ~doc:"Committed updates to write before reporting.")
  in
  let crash_primary =
    Arg.(
      value & flag
      & info [ "crash-primary" ]
          ~doc:
            "Crash the demo file's primary site after the updates commit, \
             to show failover state.")
  in
  Cmd.v
    (Cmd.info "repl-status"
       ~doc:
         "Run a short replicated workload and print each volume's replica \
          set: current primary, per-host liveness / freshness and committed \
          file versions.")
    Term.(
      const repl_status $ seed_arg $ sites_arg $ replicas_arg $ updates
      $ crash_primary)

(* {1 shard-status} *)

let shard_status seed sites shards policy files rounds =
  let sites = max 2 sites in
  let shards = if shards <= 0 then sites else shards in
  let config =
    K.Config.with_shards ~shards ~policy (K.Config.default ~n_sites:sites)
  in
  let sim = L.make ~seed ~config ~n_sites:sites () in
  let cl = sim.L.cluster in
  let files = max 1 files in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"shard-driver" (fun env ->
         let paths = List.init files (Printf.sprintf "/shard/f%d") in
         List.iter
           (fun p ->
             let c = Api.creat env p ~vid:1 in
             Api.pwrite env c ~pos:0 (Bytes.make 64 '.');
             Api.commit_file env c;
             Api.close env c)
           paths;
         (* Each file gets a dominant remote site hammering it: the
            threshold policy should hand every role to its traffic. *)
         let pids =
           List.mapi
             (fun i p ->
               let site = (i + 1) mod sites in
               Api.fork env ~site ~name:(Printf.sprintf "shard-w%d" i)
                 (fun w ->
                   let c = Api.open_file w p in
                   for _ = 1 to rounds do
                     Api.seek w c ~pos:0;
                     (match Api.lock w c ~len:64 ~mode:M.Exclusive () with
                     | Api.Granted -> ()
                     | Api.Conflict _ -> ());
                     Api.unlock w c ~len:64;
                     Engine.sleep 10_000
                   done;
                   Api.close w c))
             paths
         in
         List.iter (Api.wait_pid env) pids));
  L.run sim;
  Fmt.pr "--- shard directory (%d shards over %d sites) ---@." shards sites;
  List.iter
    (fun (fid, path, owner, epoch) ->
      Fmt.pr "%-16s %a  owner site%d  epoch %d@."
        (match path with Some p -> p | None -> "?")
        File_id.pp fid owner epoch)
    (K.shard_status cl);
  let stats = L.Engine.stats sim.L.engine in
  Fmt.pr "@.--- shard counters ---@.";
  List.iter
    (fun key ->
      let v = L.Stats.get stats key in
      if v > 0 then Fmt.pr "%-24s %d@." key v)
    [
      "shard.local_grants"; "shard.remote_grants"; "shard.redirects";
      "shard.forwards"; "shard.migrations"; "shard.installs"; "shard.fenced";
      "shard.rehomed"; "shard.transfer_lost"; "shard.dir_lookups";
      "shard.dir_claims"; "shard.dir_claim_stale";
    ];
  print_summary sim

let shard_status_cmd =
  let files =
    Arg.(
      value & opt int 4
      & info [ "files" ] ~docv:"N" ~doc:"Hot files to create (on vol 1).")
  in
  let rounds =
    Arg.(
      value & opt int 8
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Lock/unlock rounds per file from its dominant site.")
  in
  Cmd.v
    (Cmd.info "shard-status"
       ~doc:
         "Run a short sharded workload (each file hammered from one remote \
          site) and print the shard directory — who owns each file's \
          lock-manager role, at what epoch — plus the migration counters.")
    Term.(
      const shard_status $ seed_arg $ sites_arg $ shards_arg
      $ migrate_policy_arg $ files $ rounds)

(* {1 trace-export / metrics: causal span tracing} *)

(* A small deterministic distributed scenario built to exercise every span
   kind: two volumes replicated across sites 1/2 (factor 2), two workers at
   site 0 whose transactions contend on the same record so the second one
   blocks (lock.wait), commit through distributed 2PC (prepare / votes /
   commit force / phase-2 apply / replica propagation / lock release). *)
let span_workload seed =
  let sites = 3 in
  let config = K.Config.with_replication ~n_sites:sites ~factor:2 in
  let sim = L.make ~seed ~config ~n_sites:sites () in
  let cl = sim.L.cluster in
  let otr = L.Otrace.create (K.engine cl) in
  K.set_otracer cl (Some otr);
  ignore
    (Api.spawn_process cl ~site:0 ~name:"span-setup" (fun env ->
         let mk path vid =
           let c = Api.creat env path ~vid in
           Api.pwrite env c ~pos:0 (Bytes.make 128 '.');
           Api.commit_file env c;
           Api.close env c
         in
         mk "/span/a" 1;
         mk "/span/b" 2;
         let worker i delay =
           Api.fork env ~site:0 ~name:(Printf.sprintf "span-w%d" i) (fun w ->
               Engine.sleep delay;
               Api.begin_trans w;
               let update path v =
                 let c = Api.open_file w path in
                 Api.seek w c ~pos:0;
                 (match Api.lock w c ~len:64 ~mode:M.Exclusive () with
                 | Api.Granted -> ()
                 | Api.Conflict _ -> ());
                 Api.pwrite w c ~pos:0
                   (Bytes.of_string (Printf.sprintf "%-64d" v));
                 c
               in
               let ca = update "/span/a" i in
               let cb = update "/span/b" (i * 7) in
               Engine.sleep 5_000;
               ignore (Api.end_trans w);
               Api.close w ca;
               Api.close w cb)
         in
         let w1 = worker 1 0 in
         let w2 = worker 2 20_000 in
         Api.wait_pid env w1;
         Api.wait_pid env w2));
  L.run sim;
  (sim, otr)

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Write the JSON to FILE instead of stdout.")

let with_out out f =
  match out with
  | None -> f Fmt.stdout
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        let ppf = Format.formatter_of_out_channel oc in
        f ppf;
        Format.pp_print_flush ppf ())

let trace_export seed out =
  let sim, otr = span_workload seed in
  with_out out (fun ppf ->
      L.Otrace.export_chrome ~extra:[ ("seed", string_of_int seed) ] otr ppf);
  Fmt.epr "trace-export: %d spans (%d dropped), virtual time %.2f s@."
    (L.Otrace.span_count otr) (L.Otrace.dropped otr)
    (float_of_int (L.Engine.now sim.L.engine) /. 1_000_000.)

let trace_export_cmd =
  Cmd.v
    (Cmd.info "trace-export"
       ~doc:
         "Run a deterministic distributed transaction scenario with the span \
          collector installed and export the causal span trees as Chrome \
          trace-event JSON (chrome://tracing, Perfetto).")
    Term.(const trace_export $ seed_arg $ out_arg)

let metrics seed out =
  let sim, otr = span_workload seed in
  let stats = L.Engine.stats sim.L.engine in
  with_out out (fun ppf -> L.Otrace.export_metrics otr stats ppf);
  Fmt.epr "metrics: %d spans across %d phases@."
    (L.Otrace.span_count otr)
    (List.length (L.Otrace.phases otr))

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the trace-export scenario and emit machine-readable JSON \
          metrics: per-phase latency histograms, the lock-contention \
          profile, the abort-reason taxonomy, and all counters.")
    Term.(const metrics $ seed_arg $ out_arg)

(* {1 health / top: the live health plane} *)

module H = Locus_health

(* A deterministic scenario built to light the health plane up: four
   sites, replicated volumes, a mildly lossy network (RPC retries, reply
   caches filling), six workers contending on eight shared records — and,
   unless [kill] is off, a coordinator crashed right after its third
   durable decision, stranding its participants in-doubt. A monitor fiber
   at site 0 then polls every site: the dead one must come back as
   unreachable, and the watchdog must have raised [in_doubt_age]. *)
let health_workload ?(kill = true) ~window seed =
  let sites = 4 and rec_len = 16 and records = 8 in
  let config =
    K.Config.with_replication ~n_sites:sites ~factor:2
    |> K.Config.with_net_faults ~drop:0.02 ~dup:0.01 ~jitter_us:2_000
    |> K.Config.with_health ~window_us:window
  in
  let sim = L.make ~seed ~config ~n_sites:sites () in
  let cl = sim.L.cluster in
  let polls = ref [] in
  let schedule_poll delay =
    Engine.schedule ~delay (K.engine cl) (fun () ->
        ignore
          (Engine.spawn ~name:"health-monitor" ~site:0 (K.engine cl)
             (fun () -> polls := K.health_poll_all cl ~src:0)))
  in
  if kill then begin
    let decides = ref 0 in
    (K.hooks cl).K.on_decided <-
      (fun txid _status ->
        incr decides;
        if !decides = 3 then begin
          (* Keep the engine — and with it the windowed sampler — alive
             past the in-doubt age threshold, poll once the watchdog has
             had time to bark, then kill the coordinator. All scheduled
             first: this hook's own fiber dies with the site. *)
          Engine.schedule ~delay:3_500_000 (K.engine cl) (fun () -> ());
          schedule_poll 2_800_000;
          K.crash_site cl (Txid.site txid)
        end)
  end
  else schedule_poll 3_000_000;
  ignore
    (Api.spawn_process cl ~site:0 ~name:"health-setup" (fun env ->
         let c = Api.creat env "/health/acct" ~vid:1 in
         Api.pwrite env c ~pos:0 (Bytes.make (records * rec_len) '0');
         Api.commit_file env c;
         Api.close env c;
         let worker i =
           Api.fork env
             ~site:(1 + (i mod (sites - 1)))
             ~name:(Printf.sprintf "health-w%d" i)
             (fun w ->
               let prng = Prng.create ~seed:(seed + (31 * i)) in
               let c = Api.open_file w "/health/acct" in
               for _ = 1 to 3 do
                 Api.begin_trans w;
                 for _ = 1 to 2 do
                   let r = Prng.int prng records in
                   Api.seek w c ~pos:(r * rec_len);
                   (match Api.lock w c ~len:rec_len ~mode:M.Exclusive () with
                   | Api.Granted -> ()
                   | Api.Conflict _ -> ());
                   Api.pwrite w c ~pos:(r * rec_len)
                     (Bytes.of_string
                        (Printf.sprintf "%-*d" rec_len (Prng.int prng 1000)))
                 done;
                 ignore (Api.end_trans w);
                 Engine.sleep 25_000
               done;
               Api.close w c)
         in
         let pids = List.init 6 worker in
         List.iter (Api.wait_pid env) pids));
  L.run sim;
  (sim, !polls)

let window_arg =
  Arg.(
    value & opt int 100_000
    & info [ "window" ] ~docv:"US"
        ~doc:"Health sampling window in virtual µs.")

let no_kill_arg =
  Arg.(
    value & flag
    & info [ "no-kill" ]
        ~doc:
          "Skip the coordinator kill: a healthy chaotic run (no in-doubt \
           strandings, no unreachable site).")

let pp_alarm_line ppf (a : H.Rules.alarm) = Fmt.pf ppf "  %a" H.Rules.pp_alarm a

let pp_health_json cl polls ppf =
  let alarms = K.health_alarms cl in
  Fmt.pf ppf "{@[<v 1>@,\"at_us\": %d,@,\"window_us\": %d,@,\"windows\": %d,@,"
    (L.Engine.now (K.engine cl))
    (K.config cl).K.Config.health_window_us (K.health_windows cl);
  Fmt.pf ppf "\"sites\": [@[<v 1>@,%a@]@,],@,"
    (Fmt.list ~sep:(Fmt.any ",@,") H.Report.pp_poll_json)
    polls;
  Fmt.pf ppf "\"alarms\": [@[<v 1>@,%a@]@,],@,"
    (Fmt.list ~sep:(Fmt.any ",@,") (fun ppf (a : H.Rules.alarm) ->
         Fmt.pf ppf
           "{\"name\": %S, \"site\": %d, \"at_us\": %d, \"detail\": %S}"
           a.H.Rules.al_name a.H.Rules.al_site a.H.Rules.al_at_us
           a.H.Rules.al_detail))
    alarms;
  Fmt.pf ppf "\"active\": [@[<v 1>@,%a@]@,]@]@,}@."
    (Fmt.list ~sep:(Fmt.any ",@,") (fun ppf (site, rules) ->
         Fmt.pf ppf "{\"site\": %d, \"rules\": [%a]}" site
           (Fmt.list ~sep:(Fmt.any ", ") (fun ppf r -> Fmt.pf ppf "%S" r))
           rules))
    (K.health_active cl)

let dump_series cl path =
  Out_channel.with_open_text path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      H.Series.pp_list_json
        ~window_us:(K.config cl).K.Config.health_window_us
        ~windows:(K.health_windows cl) ppf (K.health_series cl);
      Format.pp_print_flush ppf ())

let health seed window no_kill out series_out =
  let sim, polls = health_workload ~kill:(not no_kill) ~window seed in
  let cl = sim.L.cluster in
  (match out with
  | Some _ -> with_out out (pp_health_json cl polls)
  | None ->
    Fmt.pr "locus health — %d sites, window %d us, %d windows, virtual %.2f s@."
      (K.config cl).K.Config.n_sites window (K.health_windows cl)
      (float_of_int (L.Engine.now (K.engine cl)) /. 1_000_000.);
    List.iter (fun p -> Fmt.pr "%a@." H.Report.pp_poll p) polls;
    (match K.health_alarms cl with
    | [] -> Fmt.pr "@.alarms: none@."
    | als ->
      Fmt.pr "@.alarms (%d):@." (List.length als);
      List.iter (fun a -> Fmt.pr "%a@." pp_alarm_line a) als));
  match series_out with None -> () | Some path -> dump_series cl path

let series_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "series-out" ] ~docv:"FILE"
        ~doc:"Also write the windowed time series as JSON to FILE.")

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run a deterministic chaotic scenario with the locus_health plane \
          armed, poll every site's health RPC, and print the structured \
          reports and watchdog alarms (JSON with --out; time series with \
          --series-out).")
    Term.(
      const health $ seed_arg $ window_arg $ no_kill_arg $ out_arg
      $ series_out_arg)

let top seed window no_kill =
  let sim, polls = health_workload ~kill:(not no_kill) ~window seed in
  let cl = sim.L.cluster in
  Fmt.pr "locus top — seed %d, %d sites, window %d us, %d windows, virtual %.2f s@."
    seed (K.config cl).K.Config.n_sites window (K.health_windows cl)
    (float_of_int (L.Engine.now (K.engine cl)) /. 1_000_000.);
  Fmt.pr "@.%-18s %8s %8s %10s  per-window@." "SERIES" "last" "peak" "total";
  List.iter
    (fun (name, s) ->
      let last =
        match H.Series.last s with None -> 0 | Some p -> p.H.Series.p_value
      in
      Fmt.pr "%-18s %8d %8d %10d  %s@." name last (H.Series.peak s)
        (H.Series.total s) (H.Series.spark s))
    (K.health_series cl);
  (match K.health_alarms cl with
  | [] -> Fmt.pr "@.alarms: none@."
  | als ->
    Fmt.pr "@.alarms (%d):@." (List.length als);
    List.iter (fun a -> Fmt.pr "%a@." pp_alarm_line a) als);
  (match K.health_active cl with
  | [] -> ()
  | act ->
    Fmt.pr "active now:%a@."
      (Fmt.list ~sep:Fmt.nop (fun ppf (site, rules) ->
           Fmt.pf ppf " %s:[%s]"
             (if site < 0 then "cluster" else Printf.sprintf "site%d" site)
             (String.concat " " rules)))
      act);
  Fmt.pr "@.SITES@.";
  List.iter (fun p -> Fmt.pr "%a@." H.Report.pp_poll p) polls

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run the health scenario and render a one-shot operator dashboard: \
          every windowed series with a sparkline, the watchdog alarm log, \
          currently-latched conditions, and one status line per site.")
    Term.(const top $ seed_arg $ window_arg $ no_kill_arg)

(* {1 load} *)

module Ld = Locus_load

let pp_load_json (cfg : Ld.Driver.config) scenario_label (r : Ld.Driver.report) ppf =
  Fmt.pf ppf "{@[<v 1>@,";
  Fmt.pf ppf "\"seed\": %d,@," cfg.Ld.Driver.seed;
  Fmt.pf ppf "\"scenario\": %S,@," scenario_label;
  Fmt.pf ppf "\"sites\": %d,@," cfg.Ld.Driver.sites;
  Fmt.pf ppf "\"replicas\": %d,@," cfg.Ld.Driver.replicas;
  Fmt.pf ppf "\"duration_us\": %d,@," cfg.Ld.Driver.duration_us;
  Fmt.pf ppf "\"offered\": %d,@," r.Ld.Driver.offered;
  Fmt.pf ppf "\"completed\": %d,@," r.Ld.Driver.completed;
  Fmt.pf ppf "\"aborted\": %d,@," r.Ld.Driver.aborted;
  Fmt.pf ppf "\"shed\": %d,@," r.Ld.Driver.shed;
  Fmt.pf ppf "\"offered_per_sec\": %.2f,@," r.Ld.Driver.offered_per_sec;
  Fmt.pf ppf "\"completed_per_sec\": %.2f,@," r.Ld.Driver.completed_per_sec;
  Fmt.pf ppf "\"sojourn_p50_us\": %d,@," r.Ld.Driver.sojourn_p50_us;
  Fmt.pf ppf "\"sojourn_p99_us\": %d,@," r.Ld.Driver.sojourn_p99_us;
  Fmt.pf ppf "\"sojourn_p999_us\": %d,@," r.Ld.Driver.sojourn_p999_us;
  Fmt.pf ppf "\"aborts\": [@[<v 1>%a@]],@,"
    (Fmt.list ~sep:(Fmt.any ",@,") (fun ppf (reason, count) ->
         Fmt.pf ppf "{\"reason\": %S, \"count\": %d}" reason count))
    r.Ld.Driver.aborts;
  Fmt.pf ppf "\"events_fired\": %d,@," r.Ld.Driver.events_fired;
  Fmt.pf ppf "\"virtual_us\": %d@]@,}@." r.Ld.Driver.virtual_us

let load seed sites replicas duration scenario scenario_file rate out =
  let label, sc =
    match scenario_file with
    | Some path -> (
      let text = In_channel.with_open_text path In_channel.input_all in
      match Ld.Scenario.parse text with
      | Ok sc -> (Filename.basename path, sc)
      | Error e ->
        Fmt.epr "locusctl load: cannot parse %s: %s@." path e;
        exit 1)
    | None -> (
      match Ld.Scenario.builtin scenario with
      | Some sc -> (scenario, sc)
      | None ->
        Fmt.epr "locusctl load: unknown scenario %S (builtins: %s)@." scenario
          (String.concat ", " Ld.Scenario.builtin_names);
        exit 1)
  in
  let sc =
    match rate with
    | None -> sc
    | Some r ->
      {
        sc with
        Ld.Scenario.arrival = { sc.Ld.Scenario.arrival with Ld.Arrival.base_per_sec = r };
      }
  in
  let cfg =
    {
      Ld.Driver.sites;
      replicas;
      duration_us = duration;
      scenario = sc;
      seed;
    }
  in
  let report, sim = Ld.Driver.run cfg in
  match out with
  | Some _ -> with_out out (pp_load_json cfg label report)
  | None ->
    Fmt.pr "locus load — scenario %s, seed %d, %d sites%s, %.1f virtual s@." label
      seed sites
      (if replicas > 1 then Printf.sprintf " (x%d replicas)" replicas else "")
      (float_of_int duration /. 1e6);
    Fmt.pr "%a@." Ld.Scenario.pp sc;
    Fmt.pr "@.%a@." Ld.Driver.pp_report report;
    print_summary sim

let replicas_arg =
  Arg.(
    value & opt int 1
    & info [ "replicas" ] ~docv:"N" ~doc:"Replication factor (1 = unreplicated).")

let duration_arg =
  Arg.(
    value & opt int 3_000_000
    & info [ "duration" ] ~docv:"US"
        ~doc:"Stop generating arrivals after this much virtual time (µs).")

let scenario_arg =
  Arg.(
    value & opt string "steady"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Built-in scenario: steady, diurnal, flash, flash-partition, \
           rolling, or rebuild.")

let scenario_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "scenario-file" ] ~docv:"FILE"
        ~doc:
          "Parse the scenario from FILE (overrides --scenario; see HACKING.md \
           for the directive format).")

let rate_arg =
  Arg.(
    value & opt (some float) None
    & info [ "rate" ] ~docv:"PER_SEC"
        ~doc:"Override the scenario's base arrival rate (arrivals/second).")

let load_cmd =
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive open-loop traffic (Poisson arrivals, Zipfian keys, scripted \
          faults) at a simulated cluster and report offered vs completed \
          throughput, sojourn percentiles, and the abort taxonomy \
          (deterministic JSON with --out).")
    Term.(
      const load $ seed_arg $ sites_arg $ replicas_arg $ duration_arg
      $ scenario_arg $ scenario_file_arg $ rate_arg $ out_arg)

(* {1 info} *)

let cluster_info _seed sites =
  let sim = L.make ~n_sites:sites () in
  let cl = sim.L.cluster in
  Fmt.pr "cluster: %d sites@." sites;
  List.iter
    (fun k ->
      let vols = Locus_fs.Filestore.volumes (K.filestore k) in
      Fmt.pr "site %d: volumes [%s]@." (K.site k)
        (String.concat ", "
           (List.map (fun v -> string_of_int (Locus_disk.Volume.vid v)) vols)))
    (K.kernels cl);
  let c = Costs.default in
  Fmt.pr "cost model: %d ns/instr, %d us one-way msg, %d us disk I/O@."
    c.Costs.instr_ns c.Costs.msg_latency_us c.Costs.disk_latency_us

let stats_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Describe the simulated cluster and cost model.")
    Term.(const cluster_info $ seed_arg $ sites_arg)

let () =
  let doc = "Scenario driver for the Locus transaction facility reproduction." in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "locusctl" ~version:"1.0" ~doc)
          [ deadlock_cmd; explore_cmd; repl_status_cmd; shard_status_cmd;
            trace_export_cmd; metrics_cmd; health_cmd; top_cmd; load_cmd;
            stats_cmd ]))
