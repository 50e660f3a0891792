(* E1 — Figure 1: the lock compatibility matrix.
   E2 — §6.2: record locking latency, local vs remote, and the
        requesting-site lock cache ablation. *)

open Harness
module Mode = Locus_lock.Mode

let e1 () =
  let cell = function `Read_write -> "r/w" | `Read -> "read" | `None -> "no" in
  let rows =
    List.map
      (fun (row, cells) ->
        Mode.to_string row :: List.map (fun (_, v) -> cell v) cells)
      Mode.figure_1
  in
  Tables.print_table ~title:"E1 / Figure 1: transaction synchronization rules"
    ~columns:[ ""; "unix"; "shared"; "exclusive" ]
    rows;
  Tables.paper "unix/unix=r/w, unix-or-shared/shared=read, anything/exclusive=no"

(* Repeatedly lock ascending groups of bytes in a file (the paper's §6.2
   methodology) and sample the per-lock syscall latency. *)
let lock_latencies ~requester_site ~n_locks =
  let sim = fresh ~n_sites:2 () in
  let samples = ref [] in
  run_proc sim ~site:requester_site (fun env ->
      let c = Api.creat env "/f" ~vid:1 in
      Api.write_string env c (String.make 1024 'x');
      Api.commit_file env c;
      let e = K.engine (Api.cluster env) in
      for g = 0 to n_locks - 1 do
        Api.seek env c ~pos:(g * 8);
        let t0 = L.Engine.now e in
        (match Api.lock env c ~len:8 ~mode:M.Exclusive () with
        | Api.Granted -> ()
        | Api.Conflict _ -> failwith "unexpected conflict");
        samples := (L.Engine.now e - t0) :: !samples
      done);
  let xs = !samples in
  float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs) /. 1000.

(* Per-read cost of 20 covered reads from the remote site under a held
   exclusive lock, in ms. *)
let covered_read_cost config =
  let sim = fresh ~config ~n_sites:2 () in
  let elapsed = ref 0 in
  run_proc sim ~site:0 (fun env ->
      let c = Api.creat env "/f" ~vid:1 in
      Api.write_string env c (String.make 256 'x');
      Api.commit_file env c;
      Api.begin_trans env;
      Api.seek env c ~pos:0;
      (match Api.lock env c ~len:256 ~mode:M.Exclusive () with
      | Api.Granted -> ()
      | Api.Conflict _ -> failwith "conflict");
      let e = K.engine (Api.cluster env) in
      let t0 = L.Engine.now e in
      for g = 0 to 19 do
        ignore (Api.pread env c ~pos:(g * 8) ~len:8)
      done;
      elapsed := L.Engine.now e - t0;
      ignore (Api.end_trans env));
  float_of_int !elapsed /. 20_000.

(* Per lock+unlock cost of 30 pairs from the remote site, in ms. *)
let burst_cost config =
  let sim = fresh ~config ~n_sites:2 () in
  let total = ref 0 in
  run_proc sim ~site:0 (fun env ->
      let c = Api.creat env "/f" ~vid:1 in
      Api.write_string env c (String.make 1024 'x');
      Api.commit_file env c;
      let e = K.engine (Api.cluster env) in
      let t0 = L.Engine.now e in
      for g = 0 to 29 do
        Api.seek env c ~pos:(g * 16);
        (match Api.lock env c ~len:16 ~mode:M.Exclusive () with
        | Api.Granted -> ()
        | Api.Conflict _ -> failwith "conflict");
        Api.seek env c ~pos:(g * 16);
        Api.unlock env c ~len:16
      done;
      total := L.Engine.now e - t0);
  float_of_int !total /. 30_000.

let e2 () =
  let two = K.Config.default ~n_sites:2 in
  let local = lock_latencies ~requester_site:1 ~n_locks:100 in
  let remote = lock_latencies ~requester_site:0 ~n_locks:100 in
  Tables.print_table ~title:"E2 / §6.2: record locking latency"
    ~columns:[ "case"; "measured"; "paper" ]
    [
      [ "local (requester at storage site)"; Tables.msf local; "~2 ms" ];
      [ "remote (cross-site request)"; Tables.msf remote; "~18 ms" ];
      [ "ratio"; Printf.sprintf "%.1fx" (remote /. local); "~9x" ];
    ];
  Tables.paper
    "750 instructions (1.5 ms) per local lock; remote ~18 ms, indistinguishable \
     from round-trip message cost";

  (* Ablation: the requesting-site lock cache (§5.1). Validating covered
     accesses locally vs re-asking the storage site on every read. *)
  let with_cache = covered_read_cost { two with K.Config.lock_cache = true }
  and without = covered_read_cost { two with K.Config.lock_cache = false } in
  Tables.print_table ~title:"E2b ablation: requesting-site lock cache (per covered read)"
    ~columns:[ "configuration"; "per-read cost" ]
    [
      [ "lock cache on (local validation)"; Tables.msf with_cache ];
      [ "lock cache off (revalidate at storage site)"; Tables.msf without ];
    ];
  Tables.paper "the local lock cache lets the kernel quickly validate each access";

  (* §5.2's further opportunity: prefetch the locked range with the grant
     and serve covered reads from the requesting site. *)
  let no_prefetch = covered_read_cost { two with K.Config.prefetch = false }
  and prefetched = covered_read_cost { two with K.Config.prefetch = true } in
  Tables.print_table
    ~title:"E2c ablation: lock-grant data prefetch (§5.2, remote reads under a held lock)"
    ~columns:[ "configuration"; "per-read cost" ]
    [
      [ "no prefetch (every read crosses the net)"; Tables.msf no_prefetch ];
      [ "prefetch on grant (reads served locally)"; Tables.msf prefetched ];
      [ "speedup"; Printf.sprintf "%.0fx" (no_prefetch /. prefetched) ];
    ];
  Tables.paper
    "when a lock is requested, the page(s) containing the byte range can be \
     prefetched in anticipation of their subsequent use (§5.2)";

  (* §5.2's second opportunity: temporarily transfer lock management to a
     site making heavy use of it — locus_shard's streak placement with
     one directory shard. *)
  let placed policy = burst_cost (K.Config.with_shards ~shards:1 ~policy two) in
  let stays = placed Locus_shard.Policy.Never
  and migrates = placed (Locus_shard.Policy.Threshold 3) in
  Tables.print_table
    ~title:
      "E2d ablation: lock-control migration (§5.2, 30 lock/unlock pairs from \
       one remote site)"
    ~columns:[ "configuration"; "per lock+unlock" ]
    [
      [ "authority stays at the storage site"; Tables.msf stays ];
      [ "authority migrates to the requester"; Tables.msf migrates ];
      [ "speedup"; Printf.sprintf "%.1fx" (stays /. migrates) ];
    ];
  Tables.paper
    "the storage site could temporarily transfer its ability to manage a group \
     of locks to another site, reducing overhead for co-located heavy users \
     (§5.2)";
  let row label ms =
    Jsonout.single ~label ~latency_us:(int_of_float (Float.round (ms *. 1000.))) ()
  in
  Gate.publish ~exp:"e2"
    [
      row "local" local;
      row "remote" remote;
      row "E2b lock cache on" with_cache;
      row "E2b lock cache off" without;
      row "E2c prefetch off" no_prefetch;
      row "E2c prefetch on" prefetched;
      row "E2d authority stays" stays;
      row "E2d authority migrates" migrates;
    ]
