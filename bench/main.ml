(* The experiment harness: one entry per table/figure of the paper's
   evaluation (see DESIGN.md §5 for the index and EXPERIMENTS.md for the
   recorded outcomes).

     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- e3 e4   # selected experiments
     LOCUS_BREAK=batch dune exec bench/main.exe -- e16   # mutant armed *)

let experiments =
  [
    ("e1", "Figure 1: lock compatibility matrix", Exp_locks.e1);
    ("e2", "\xc2\xa76.2: locking latency local vs remote (+cache ablation)", Exp_locks.e2);
    ("e3", "Figure 5: transaction I/O overhead (+fn 9, phase-2 ablations)", Exp_io.e3);
    ("e4", "Figure 6: record commit performance", Exp_commit.e4);
    ("e5", "\xc2\xa76: shadow paging vs WAL (analytic + live)", Exp_walcmp.e5);
    ("e6", "fn 11: page-size sensitivity", Exp_commit.e6);
    ("e7", "\xc2\xa77.1: record vs whole-file locking concurrency", Exp_concurrency.e7);
    ("e8", "\xc2\xa74.3-4.4: crash at each 2PC stage", Exp_failure.e8);
    ("e9", "\xc2\xa74.1: migration cost and merge races", Exp_failure.e9);
    ("e10", "\xc2\xa73.1: deadlock detection", Exp_failure.e10);
    ("e12", "\xc2\xa71: concurrency scaling with sites", Exp_scaling.e12);
    ("e13", "\xc2\xa77.1: old nested facility vs BeginTrans/EndTrans", Exp_baseline.e13);
    ("e14", "Locus_check: schedule exploration throughput", Exp_check.e14);
    ("e15", "\xc2\xa75.2: replication read fan-out and commit propagation cost", Exp_repl.e15);
    ("e16", "group commit + RPC batching on the 2PC hot path", Exp_batch.e16);
    ("e17", "2PC vs Paxos Commit: non-blocking atomic commitment", Exp_pcommit.e17);
    ("e18", "locus_shard: dynamic lock placement on a hot-key workload", Exp_shard.e18);
    ("e19", "locus_chaos: record commit over a lossy network", Exp_chaos.e19);
    ("e20", "locus_health: health plane overhead + alarm latency", Exp_health.e20);
    ("e21", "locus_load: offered-load ladder + engine dispatch speed", Exp_load.e21);
    ("micro", "bechamel microbenchmarks", Micro.run);
  ]

let () =
  let mutants =
    try Mutant.of_env ()
    with Invalid_argument msg ->
      Fmt.epr "%s@." msg;
      exit 2
  in
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (n, _, _) -> n) experiments
  in
  Fmt.pr
    "Locus transactions reproduction - experiment harness@.\
     (virtual 1985 hardware: 0.5 MIPS CPU, 10 Mb Ethernet, ~25 ms disk)@.";
  List.iter (fun m -> Fmt.pr "%s@." (Mutant.doc m)) mutants;
  Mutant.with_armed mutants @@ fun () ->
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, desc, f) ->
        Fmt.pr "@.=== %s: %s ===@." (String.uppercase_ascii name) desc;
        f ()
      | None -> Fmt.epr "unknown experiment %S@." name)
    requested;
  Fmt.pr "@.done.@."
