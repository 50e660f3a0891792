(* E18 — dynamic lock placement under a hot-key workload.

   32 sites, 8 hot files on one volume, each with a dominant site that
   issues ~80% of that file's lock traffic (the rest is uniform noise —
   a Zipf-flavoured skew with one head key per worker). With static
   placement every acquisition from a dominant site is a cross-site
   round trip to the storage site; with locus_shard's threshold policy
   the lock-manager role migrates to the traffic after a short remote
   streak and the same workload runs against the local lock table.

   The JSON rows carry the local-hit ratio (local grants over all
   grants, measured phase only) and the migration count, so the perf
   gate can assert that placement actually collapses the round trips —
   and LOCUS_BREAK=shard runs the same bench with the stand-down
   fault injected, which must drag the ratio back under the gate's
   floor (the inversion that proves the gate has teeth). *)

open Harness
module Policy = Locus_shard.Policy

let n_sites = 32
let n_keys = 8
let rounds = 24
let rec_len = 64
let wake_at = 5_000_000

type sample = {
  label : string;
  grants : int;
  local : int;
  remote : int;
  migrations : int;
  latencies : int list;
  span_us : int;
}

let key i = Printf.sprintf "/sh/k%d" i

let run_once ~policy ~label =
  let config =
    K.Config.with_shards ~shards:n_keys ~policy
      (K.Config.default ~n_sites)
  in
  let sim = fresh ~config ~n_sites () in
  let cl = sim.L.cluster in
  let e = K.engine cl in
  let lats = ref [] in
  let local0 = ref 0 and remote0 = ref 0 in
  let t_start = ref 0 and t_end = ref 0 in
  let setup_pid =
    Api.spawn_process cl ~site:0 ~name:"setup" (fun env ->
        List.init n_keys Fun.id
        |> List.iter (fun i ->
               let c = Api.creat env (key i) ~vid:1 in
               Api.write_string env c (String.make rec_len 'i');
               Api.commit_file env c;
               Api.close env c))
  in
  (* Worker i lives at its key's dominant site: one hop away from the
     storage site, hammering mostly its own key. *)
  let worker i =
    let rng = Prng.create ~seed:(1000 + i) in
    let home_of k =
      match K.lookup cl (key k) with
      | Some fid -> K.shard_default_owner cl fid
      | None -> 0
    in
    Api.spawn_process cl ~site:0 ~name:(Printf.sprintf "sh%d" i) (fun w ->
        Api.wait_pid w setup_pid;
        let dominant = (home_of i + 1 + i) mod n_sites in
        Api.migrate w dominant;
        let chans = Array.init n_keys (fun k -> Api.open_file w (key k)) in
        Engine.sleep (wake_at - L.Engine.now e);
        for _ = 1 to rounds do
          let k =
            if Prng.int rng 10 < 8 then i else Prng.int rng n_keys
          in
          let c = chans.(k) in
          Api.seek w c ~pos:0;
          let t0 = L.Engine.now e in
          (match Api.lock w c ~len:rec_len ~mode:M.Exclusive () with
          | Api.Granted -> ()
          | Api.Conflict _ -> ());
          lats := (L.Engine.now e - t0) :: !lats;
          Api.seek w c ~pos:0;
          Api.unlock w c ~len:rec_len;
          Engine.sleep 2_000
        done;
        Array.iter (fun c -> Api.close w c) chans)
  in
  let pids = List.init n_keys worker in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"monitor" (fun env ->
         Engine.sleep (wake_at - 1_000 - L.Engine.now e);
         local0 := L.Stats.get (stats sim) "shard.local_grants";
         remote0 := L.Stats.get (stats sim) "shard.remote_grants";
         t_start := L.Engine.now e;
         List.iter (Api.wait_pid env) pids;
         t_end := L.Engine.now e));
  L.run sim;
  let local = L.Stats.get (stats sim) "shard.local_grants" - !local0
  and remote = L.Stats.get (stats sim) "shard.remote_grants" - !remote0 in
  {
    label;
    grants = local + remote;
    local;
    remote;
    migrations = L.Stats.get (stats sim) "shard.migrations";
    latencies = List.rev !lats;
    span_us = !t_end - !t_start;
  }

let e18 () =
  let break = Mutant.(armed Shard) in
  let samples =
    [
      run_once ~policy:Policy.Never ~label:"placement off";
      run_once ~policy:(Policy.Threshold 3)
        ~label:(if break then "placement on (broken)" else "placement on");
    ]
  in
  let ratio s =
    if s.grants = 0 then 0.
    else float_of_int s.local /. float_of_int s.grants
  in
  Tables.print_table
    ~title:
      (Printf.sprintf
         "E18: dynamic lock placement, %d hot keys, %d sites%s" n_keys
         n_sites
         (if break then " [BREAK-SHARD]" else ""))
    ~columns:
      [ "case"; "grants"; "local"; "remote"; "local-hit"; "migrations";
        "lock p50"; "lock p99" ]
    (List.map
       (fun s ->
         [
           s.label;
           string_of_int s.grants;
           string_of_int s.local;
           string_of_int s.remote;
           Printf.sprintf "%.2f" (ratio s);
           string_of_int s.migrations;
           Tables.ms (Jsonout.percentile s.latencies 50.);
           Tables.ms (Jsonout.percentile s.latencies 99.);
         ])
       samples);
  let metrics =
    List.map
      (fun s ->
        Jsonout.metric
          ~extras:
            [
              ("grants", float_of_int s.grants);
              ("local_grants", float_of_int s.local);
              ("remote_grants", float_of_int s.remote);
              ("local_hit_ratio", ratio s);
              ("migrations", float_of_int s.migrations);
            ]
          ~label:s.label ~span_us:s.span_us s.latencies)
      samples
  in
  Jsonout.write ~exp:"e18" metrics;
  Tables.paper
    "not in the paper: §5.2 stops at temporary delegation of lock \
     control; locus_shard makes the placement durable and dynamic — a \
     directory-backed lock-manager role that migrates toward the \
     traffic under an epoch fence"
