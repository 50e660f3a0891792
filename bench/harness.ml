(* Shared plumbing for the experiments. *)

module L = Locus_core.Locus
module Api = L.Api
module K = L.Kernel
module M = L.Mode

let fresh ?config ?(seed = 42) ~n_sites () = L.make ?config ~seed ~n_sites ()

(* Run [f] as a single user process and drain the engine. *)
let run_proc sim ~site f =
  ignore (Api.spawn_process sim.L.cluster ~site f);
  L.run sim

let stats sim = L.Engine.stats sim.L.engine
let now sim = L.Engine.now sim.L.engine

(* Every volume of the cluster, and the disk I/Os across them. *)
let volumes sim =
  List.concat_map (fun k -> Locus_fs.Filestore.volumes (K.filestore k)) (K.kernels sim.L.cluster)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let io_counts sim =
  let vs = volumes sim in
  Locus_disk.Volume.(sum io_reads vs, sum io_writes vs, sum io_log_writes vs)

let reset_io sim = List.iter Locus_disk.Volume.reset_io_counters (volumes sim)

(* Install a span collector on a fresh sim; harvest its per-phase
   histograms with [phase_breakdown] after the run. Spans consume no
   virtual time, so measured latencies are identical with or without it. *)
let with_otrace sim =
  let otr = L.Otrace.create (K.engine sim.L.cluster) in
  K.set_otracer sim.L.cluster (Some otr);
  otr

(* The commit-path phases worth a column in BENCH_<exp>.json. *)
let bench_phases =
  [
    "lock.wait"; "coord_log.write"; "2pc.prepare"; "prepare.force";
    "2pc.votes"; "commit.force"; "2pc.phase2"; "phase2.apply";
    "replica.propagate"; "lock.release"; "commit-file"; "replica-commit";
  ]

let phase_breakdown otr =
  List.filter_map
    (fun (name, h) ->
      if List.mem name bench_phases && L.Stats.Hist.count h > 0 then
        Some
          {
            Jsonout.ph_name = name;
            ph_count = L.Stats.Hist.count h;
            ph_total_us = L.Stats.Hist.total h;
            ph_p50_us = L.Stats.Hist.quantile h 50;
          }
      else None)
    (L.Otrace.phases otr)

let cpu_instr sim = L.Stats.get (stats sim) "cpu.instr"

let cpu_instr_site sim s =
  L.Stats.get (stats sim) (Printf.sprintf "cpu.instr.site%d" s)

let instr_to_ms instr =
  float_of_int (instr * Locus_sim.Costs.default.Locus_sim.Costs.instr_ns) /. 1_000_000.
