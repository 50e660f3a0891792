(* Per-layer counters read from the outside of a drained simulation:
   [Engine.stats], [Engine.events_fired], the volumes' I/O counters and
   the health plane's window count. A workload sums them over every
   simulation it runs. *)

module L = Locus_core.Locus
module K = Locus_core.Kernel
module Stats = Locus_sim.Stats

type t = (string, int) Hashtbl.t

let create () : t = Hashtbl.create 64
let get (t : t) name = Option.value (Hashtbl.find_opt t name) ~default:0
let bump (t : t) name v = Hashtbl.replace t name (get t name + v)

let abort_reasons =
  [ "coordinator_lost"; "crash"; "deadlock"; "degraded_vote"; "orphan"; "user" ]

let counters =
  [ "lock.requests"; "lock.waits"; "deadlock.scans"; "deadlock.victims";
    "net.msg"; "net.retries"; "commit.merge"; "commit.direct"; "cache.hit";
    "cache.miss"; "cpu.instr"; "txn.committed"; "txn.aborted" ]
  @ List.map (fun r -> "txn.abort." ^ r) abort_reasons

let add_sim (t : t) (sim : L.sim) =
  let eng = sim.L.engine in
  let st = L.Engine.stats eng in
  List.iter (fun c -> bump t c (Stats.get st c)) counters;
  (match Stats.histogram st "lock.wait_us" with
  | Some h -> bump t "lock.wait_us" (Stats.Hist.total h)
  | None -> ());
  bump t "events" (L.Engine.events_fired eng);
  bump t "virtual_us" (L.Engine.now eng);
  bump t "health.windows" (K.health_windows sim.L.cluster);
  (* Volumes survive a site crash, and each is mounted at exactly one
     site, so walking every kernel's mounts counts each spindle once. *)
  List.iter
    (fun k ->
      List.iter
        (fun v ->
          bump t "disk.reads" (Locus_disk.Volume.io_reads v);
          bump t "disk.writes" (Locus_disk.Volume.io_writes v);
          bump t "disk.log_writes" (Locus_disk.Volume.io_log_writes v))
        (Locus_fs.Filestore.volumes (K.filestore k)))
    (K.kernels sim.L.cluster)

(* Counter-derived per-layer rows; [commits] is the workload's own count
   of committed transactions (the denominator of every per-commit row).
   The abort rows are the taxonomy: each reason's share of all counted
   aborts. *)
let rows (t : t) ~commits =
  let open Metric in
  let g n = fi (get t n) in
  let per_commit n = ratio (g n) (fi commits) in
  let costs = Locus_sim.Costs.default in
  let aborts = List.fold_left (fun acc r -> acc +. g ("txn.abort." ^ r)) 0. abort_reasons in
  [ row Virtual "count" "sim.events_per_commit" (per_commit "events");
    row Virtual "ms" "cpu.ms_per_commit"
      (ratio (g "cpu.instr" *. fi costs.Locus_sim.Costs.instr_ns /. 1e6) (fi commits));
    row Virtual "count" "lock.requests_per_commit" (per_commit "lock.requests");
    row Virtual "ratio" "lock.wait_frac" (ratio (g "lock.waits") (g "lock.requests"));
    row Virtual "ms" "lock.wait_ms" (ratio (g "lock.wait_us" /. 1000.) (fi commits));
    row Virtual "ratio" "commit.merge_frac"
      (ratio (g "commit.merge") (g "commit.merge" +. g "commit.direct"));
    row Virtual "count" "disk.reads_per_commit" (per_commit "disk.reads");
    row Virtual "count" "disk.writes_per_commit" (per_commit "disk.writes");
    row Virtual "count" "disk.log_writes_per_commit" (per_commit "disk.log_writes");
    row Virtual "ratio" "cache.hit_frac"
      (ratio (g "cache.hit") (g "cache.hit" +. g "cache.miss"));
    row Virtual "count" "net.msgs_per_commit" (per_commit "net.msg");
    row Virtual "count" "net.retries" (g "net.retries");
    row Virtual "count" "deadlock.scans_per_commit" (per_commit "deadlock.scans");
    row Virtual "count" "deadlock.victims_per_scan"
      (ratio (g "deadlock.victims") (g "deadlock.scans")) ]
  @ List.map
      (fun r ->
        row Virtual "ratio"
          (Printf.sprintf "txn.abort.%s_frac" r)
          (ratio (g ("txn.abort." ^ r)) aborts))
      abort_reasons
