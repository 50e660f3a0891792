(* E14 — schedule exploration throughput: how many complete
   workload-execute-and-check cycles per second of real CPU time the
   Locus_check harness sustains, across workload sizes and with crash
   injection. Each "schedule" is a full deterministic cluster simulation
   (one seed) plus a serializability check of its recorded history. *)

module Ck = Locus_check

let sweep_rate ~label ~config ~n_seeds ~from =
  let t0 = Sys.time () in
  let r = Ck.Explore.sweep ~config ~seeds:(Ck.Explore.seeds ~n:n_seeds ~from) () in
  let dt = Float.max (Sys.time () -. t0) 1e-9 in
  assert (r.Ck.Explore.failures = []);
  [
    label;
    string_of_int n_seeds;
    string_of_int r.Ck.Explore.events;
    Printf.sprintf "%.1f" (float_of_int n_seeds /. dt);
    Printf.sprintf "%.0f" (float_of_int r.Ck.Explore.events /. dt);
  ]

let e14 () =
  let base = Ck.Explore.default_config in
  let rows =
    [
      sweep_rate ~label:"2 sites, 4 txns x 4 ops" ~config:base ~n_seeds:200
        ~from:0;
      sweep_rate ~label:"3 sites, 8 txns x 4 ops"
        ~config:{ base with Ck.Explore.sites = 3; txns = 8 }
        ~n_seeds:100 ~from:0;
      sweep_rate ~label:"3 sites, 4 txns, fault every 5"
        ~config:{ base with Ck.Explore.sites = 3; fault_every = Some 5 }
        ~n_seeds:100 ~from:0;
      sweep_rate ~label:"3 sites, 2 replicas, fault every 5"
        ~config:
          { base with Ck.Explore.sites = 3; replicas = 2; fault_every = Some 5 }
        ~n_seeds:100 ~from:0;
      sweep_rate ~label:"2 sites, 16 txns x 8 ops"
        ~config:{ base with Ck.Explore.txns = 16; ops = 8; records = 8 }
        ~n_seeds:50 ~from:0;
      sweep_rate ~label:"3 sites, 512 txns x 4 ops, open loop 2/s"
        ~config:
          { base with
            Ck.Explore.sites = 3; txns = 512; records = 512; arrival = Some 2. }
        ~n_seeds:4 ~from:0;
    ]
  in
  Tables.print_table ~title:"schedule exploration throughput (real CPU time)"
    ~columns:[ "workload"; "seeds"; "events"; "schedules/s"; "events/s" ]
    rows;
  Fmt.pr
    "every sweep: zero unpermitted serializability violations (asserted).@."
