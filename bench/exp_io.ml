(* E3 — Figure 5: transaction I/O overhead, with the footnote 9 ablation
   and the async-phase-2 latency ablation. Footnote 10 (one prepare log
   per volume, not per file) is the unit test txn.participant/per-file
   log. *)

open Harness

type counts = {
  coord_logs : int;  (* coordinator record + commit mark, at coordinator *)
  prepare_logs : int;
  flush_writes : int;
  inode_writes : int;
  client_latency_us : int;
}

(* Every [Volume.write_inode] bumps its inode's version by one, so the
   change in this sum counts inode writes. *)
let inode_versions sim =
  Locus_disk.Volume.(sum (fun v -> sum (inode_version_nosim v) (inode_numbers v)) (volumes sim))

(* Run one transaction updating [pages_per_file] pages in each of
   [n_files] files (each file on its own volume when [n_volumes] > 1);
   return the I/O breakdown attributable to the transaction. *)
let run_txn ?(two_write_log = false) ?(async_phase2 = true) ~n_files ~pages_per_file () =
  let n_sites = 2 in
  let volumes =
    (* Volume 0 at site 0 (coordinator log), data volumes at site 1. *)
    (0, [ 0 ]) :: List.init n_files (fun i -> (i + 1, [ 1 ]))
  in
  let config =
    {
      (K.Config.default ~n_sites) with
      K.Config.volumes;
      two_write_log;
      async_phase2;
    }
  in
  let sim = fresh ~config ~n_sites () in
  let result = ref None and versions0 = ref 0 in
  run_proc sim ~site:0 (fun env ->
      let chans =
        List.init n_files (fun i ->
            Api.creat env (Printf.sprintf "/f%d" i) ~vid:(i + 1))
      in
      (* Everything before the measured transaction settles first. *)
      List.iter (fun c -> Api.commit_file env c) chans;
      Engine.sleep 200_000;
      reset_io sim;
      versions0 := inode_versions sim;
      let e = K.engine (Api.cluster env) in
      let coord_vol =
        Locus_txn.Coord_log.volume (K.coord_log (K.kernel (Api.cluster env) 0))
      in
      let logs_at_coord () = Locus_disk.Volume.io_log_writes coord_vol in
      let c0 = logs_at_coord () in
      let t0 = L.Engine.now e in
      Api.begin_trans env;
      List.iter
        (fun c ->
          for p = 0 to pages_per_file - 1 do
            Api.pwrite env c ~pos:(p * 1024) (Bytes.make 100 'z')
          done)
        chans;
      (match Api.end_trans env with
      | K.Committed -> ()
      | K.Aborted -> failwith "unexpected abort");
      let latency = L.Engine.now e - t0 in
      result := Some (latency, logs_at_coord () - c0));
  let latency, coord_logs = Option.get !result in
  let _, writes, logs = io_counts sim in
  let inode_writes = inode_versions sim - !versions0 in
  {
    coord_logs;
    prepare_logs = logs - coord_logs;
    flush_writes = writes - inode_writes;
    inode_writes;
    client_latency_us = latency;
  }

(* Figure 5, per row of [e3]'s table: the coordinator logs twice, each
   updated page is flushed once, each volume logs one prepare record and
   each file's inode is written once. *)
let claims =
  let per_row = Gate.each_equals "" in
  [
    per_row "coordinator log = 2" "coord_log" (fun _ -> 2.);
    per_row "data flush = pages x files" "data_flush" (fun v -> v "pages" *. v "files");
    per_row "prepare log = 1 per volume" "prepare_log" (fun v -> v "volumes");
    per_row "inode writes = 1 per file" "inode_writes" (fun v -> v "files");
    Gate.claim "totals 5, 8 and 11" (fun rows ->
        let t = List.map (fun r -> Gate.field r "total") rows in
        Gate.verdict (t = [ 5.; 8.; 11. ]) "%s"
          (String.concat ", " (List.map (Printf.sprintf "%g") t)));
  ]

let e3 () =
  let simple = run_txn ~n_files:1 ~pages_per_file:1 () in
  let multi_page = run_txn ~n_files:1 ~pages_per_file:4 () in
  let multi_vol = run_txn ~n_files:3 ~pages_per_file:1 () in
  let total c = c.coord_logs + c.flush_writes + c.prepare_logs + c.inode_writes in
  let row name c expected =
    [
      name;
      Tables.i c.coord_logs;
      Tables.i c.flush_writes;
      Tables.i c.prepare_logs;
      Tables.i c.inode_writes;
      Tables.i (total c);
      expected;
    ]
  in
  Tables.print_table
    ~title:"E3 / Figure 5: I/O operations per transaction (measured)"
    ~columns:
      [ "workload"; "coord log"; "data flush"; "prepare log"; "inode (async)";
        "total"; "paper" ]
    [
      row "1 page, 1 file" simple "2+1+1+1 = 5";
      row "4 pages, 1 file" multi_page "2+4+1+1 = 8 (only step 2 repeats)";
      row "1 page x 3 files/volumes" multi_vol "2+3+3+3 (one prepare log per volume)";
    ];
  Tables.paper
    "Figure 5: coordinator record, dirty-page flush, prepare log, commit mark \
     before completion; the intentions-list (inode) write happens later";
  (* Each file sits on its own volume. *)
  let metric label ~pages ~files c =
    Jsonout.single ~label ~latency_us:c.client_latency_us ()
      ~extras:
        (List.map
           (fun (k, v) -> (k, float_of_int v))
           [
             ("pages", pages); ("files", files); ("volumes", files);
             ("coord_log", c.coord_logs); ("data_flush", c.flush_writes);
             ("prepare_log", c.prepare_logs); ("inode_writes", c.inode_writes);
             ("total", total c);
           ])
  in
  Gate.publish ~exp:"e3" ~claims
    [
      metric "1 page, 1 file" ~pages:1 ~files:1 simple;
      metric "4 pages, 1 file" ~pages:4 ~files:1 multi_page;
      metric "1 page x 3 files/volumes" ~pages:1 ~files:3 multi_vol;
    ];

  (* Footnote 9 ablation: the uncorrected implementation spent two writes
     per log append. *)
  let fixed = run_txn ~n_files:1 ~pages_per_file:1 () in
  let double = run_txn ~two_write_log:true ~n_files:1 ~pages_per_file:1 () in
  let log_total c = c.coord_logs + c.prepare_logs in
  Tables.print_table ~title:"E3b ablation: footnote 9 (two writes per log append)"
    ~columns:[ "configuration"; "log I/Os"; "client latency" ]
    [
      [ "corrected (1 write/append)"; Tables.i (log_total fixed);
        Tables.ms fixed.client_latency_us ];
      [ "uncorrected (2 writes/append)"; Tables.i (log_total double);
        Tables.ms double.client_latency_us ];
    ];
  (* Async vs sync phase 2: what the client waits for. *)
  let async_run = run_txn ~n_files:1 ~pages_per_file:1 ~async_phase2:true () in
  let sync_run = run_txn ~n_files:1 ~pages_per_file:1 ~async_phase2:false () in
  Tables.print_table ~title:"E3c ablation: asynchronous phase 2 (§4.2)"
    ~columns:[ "phase 2"; "client latency" ]
    [
      [ "asynchronous (paper)"; Tables.ms async_run.client_latency_us ];
      [ "synchronous"; Tables.ms sync_run.client_latency_us ];
    ];
  Tables.paper
    "the 5th I/O (intentions-list application) happens after the transaction \
     completes; a synchronous phase 2 adds it to client latency"
