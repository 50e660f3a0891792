(* E12 — §1's premise: "in order to perform effectively in comparison to
   large centralized systems, such systems rely on achieving considerable
   concurrency of data access and update".

   A fixed workload (16 terminals x 4 record updates) runs against data
   partitioned over 1, 2, 4 and 8 sites. With one site everything funnels
   through one disk and one CPU; with more sites, record-level locking
   lets the work proceed in parallel. *)

open Harness

let terminals = 16
let updates = 4

let makespan ~n_sites =
  let sim = fresh ~n_sites () in
  let out = ref 0 in
  let lats = ref [] in
  run_proc sim ~site:0 (fun env ->
      (* One data file per site/volume; setup closes everything so the
         forked terminals inherit no channels. *)
      List.iter
        (fun v ->
          let c = Api.creat env (Printf.sprintf "/data%d" v) ~vid:v in
          Api.write_string env c (String.make 2048 'i');
          Api.close env c)
        (List.init n_sites Fun.id);
      Engine.sleep 200_000;
      let e = K.engine (Api.cluster env) in
      let t0 = L.Engine.now e in
      let terminal t =
        Api.fork env ~site:(t mod n_sites) ~name:(Printf.sprintf "t%d" t)
          (fun w ->
            let e = K.engine (Api.cluster w) in
            let t_begin = L.Engine.now e in
            let prng = Prng.create ~seed:(500 + t) in
            (* Site-local records (the locality the paper's environment
               assumes), locked in ascending order so the measurement is
               contention, not deadlock retries. *)
            let c = Api.open_file w (Printf.sprintf "/data%d" (t mod n_sites)) in
            let positions =
              List.init updates (fun _ -> 64 * Prng.int prng 32)
              |> List.sort_uniq Int.compare
            in
            Api.begin_trans w;
            List.iter
              (fun pos ->
                Api.seek w c ~pos;
                (match Api.lock w c ~len:64 ~mode:M.Exclusive () with
                | Api.Granted -> ()
                | Api.Conflict _ -> ());
                Api.pwrite w c ~pos (Bytes.make 64 'u'))
              positions;
            ignore (Api.end_trans w);
            lats := (L.Engine.now e - t_begin) :: !lats;
            Api.close w c)
      in
      let pids = List.init terminals terminal in
      List.iter (Api.wait_pid env) pids;
      out := L.Engine.now e - t0);
  (!out, !lats)

let e12 () =
  let base = ref 0 in
  let metrics = ref [] in
  let rows =
    List.map
      (fun n_sites ->
        let m, lats = makespan ~n_sites in
        if n_sites = 1 then base := m;
        metrics :=
          Jsonout.metric
            ~label:(Printf.sprintf "%d sites" n_sites)
            ~span_us:m lats
          :: !metrics;
        [
          Tables.i n_sites;
          Tables.ms m;
          Printf.sprintf "%.0f txn/s"
            (float_of_int terminals /. (float_of_int m /. 1_000_000.));
          Printf.sprintf "%.1fx" (float_of_int !base /. float_of_int m);
        ])
      [ 1; 2; 4; 8 ]
  in
  Tables.print_table
    ~title:
      "E12 / §1: fixed workload (16 txns, 4 record updates each) over a \
       growing cluster"
    ~columns:[ "sites"; "makespan"; "throughput"; "speedup vs 1 site" ]
    rows;
  Gate.publish ~exp:"e12" (List.rev !metrics);
  Tables.paper
    "an environment of many relatively small machines performs by achieving \
     considerable concurrency of data access and update — hence fine-grain \
     synchronization (§1)"
