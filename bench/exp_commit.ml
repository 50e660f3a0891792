(* E4 — Figure 6: record commit performance, local/remote x
        overlap/non-overlap.
   E6 — footnote 11: page-size sensitivity of the differencing commit. *)

open Harness

(* Measure one record commit (the single-file commit mechanism, driven by
   the non-transaction Commit_file path — the paper measures the record
   commit operation itself). [overlap] parks another owner's uncommitted
   record on the same data page first, forcing the Figure 4(b)
   differencing path. *)
let measure_commit ?(page_size = 1024) ?(record_bytes = 100) ?(phases = false)
    ~requester_site ~overlap () =
  let config = { (K.Config.default ~n_sites:2) with K.Config.page_size } in
  let sim = fresh ~config ~n_sites:2 () in
  let otr = if phases then Some (with_otrace sim) else None in
  let out = ref None in
  ignore
    (Api.spawn_process sim.L.cluster ~site:1 ~name:"other" (fun env ->
         let c = Api.creat env "/f" ~vid:1 in
         Api.write_string env c (String.make page_size 'i');
         Api.commit_file env c;
         if overlap then begin
           (* Leave an uncommitted record of another owner on the page. *)
           Api.pwrite env c ~pos:(page_size - 64) (Bytes.make 64 'o')
         end;
         (* Park so the dirty state stays alive while the measurement
            runs; commit our record at the very end. *)
         Engine.sleep 3_000_000;
         Api.close env c));
  ignore
    (Api.spawn_process sim.L.cluster ~site:requester_site ~name:"measured"
       (fun env ->
         Engine.sleep 500_000;
         let c = Api.open_file env "/f" in
         let e = K.engine (Api.cluster env) in
         (* The measured user's record at the start of page 0. *)
         Api.pwrite env c ~pos:0 (Bytes.make record_bytes 'm');
         Engine.sleep 10_000;
         let t0 = L.Engine.now e in
         let cpu0 = cpu_instr_site sim requester_site in
         Api.commit_file env c;
         let latency = L.Engine.now e - t0 in
         let service = cpu_instr_site sim requester_site - cpu0 in
         out := Some (service, latency);
         Api.close env c));
  L.run sim;
  let service, latency = Option.get !out in
  let breakdown =
    match otr with None -> [] | Some o -> phase_breakdown o
  in
  (service, latency, breakdown)

let e4 () =
  let cases =
    [
      ("local, non-overlap", 1, false, "21 ms / 73 ms");
      ("local, overlap", 1, true, "24 ms / 100 ms");
      ("remote, non-overlap", 0, false, "16 ms / 131 ms");
      ("remote, overlap", 0, true, "16 ms / 124 ms");
    ]
  in
  let metrics = ref [] in
  let rows =
    List.map
      (fun (name, site, overlap, paper) ->
        let service, latency, phases =
          measure_commit ~phases:true ~requester_site:site ~overlap ()
        in
        metrics :=
          Jsonout.single ~phases ~label:name ~latency_us:latency () :: !metrics;
        [
          name;
          Printf.sprintf "%s (%d inst)" (Tables.msf (instr_to_ms service)) service;
          Tables.ms latency;
          paper;
        ])
      cases
  in
  Tables.print_table
    ~title:"E4 / Figure 6: measured commit performance (requesting site)"
    ~columns:[ "case"; "service time"; "latency"; "paper svc/lat" ]
    rows;
  Gate.publish ~exp:"e4" (List.rev !metrics);
  Tables.paper
    "overlap adds a moderate service-time cost locally and ~27 ms of latency \
     (the extra merged-page write); remote commits offload service to the \
     storage site but pay network latency"

let e6 () =
  let rows =
    List.map
      (fun page_size ->
        (* "A substantial portion of the page" is copied (footnote 11):
           the measured record covers ~60% of it. *)
        let record_bytes = page_size * 6 / 10 in
        let s_no, l_no, _ =
          measure_commit ~page_size ~record_bytes ~requester_site:1 ~overlap:false ()
        in
        let s_ov, l_ov, _ =
          measure_commit ~page_size ~record_bytes ~requester_site:1 ~overlap:true ()
        in
        [
          Printf.sprintf "%d B" page_size;
          Tables.msf (instr_to_ms s_no);
          Tables.ms l_no;
          Tables.msf (instr_to_ms s_ov);
          Tables.ms l_ov;
          Tables.msf (instr_to_ms (s_ov - s_no));
        ])
      [ 1024; 4096 ]
  in
  Tables.print_table
    ~title:"E6 / footnote 11: page-size sensitivity of the differencing commit"
    ~columns:
      [ "page size"; "svc (plain)"; "lat (plain)"; "svc (overlap)"; "lat (overlap)";
        "overlap svc delta" ]
    rows;
  Tables.paper
    "1 KiB pages in the measurements; 4 KiB pages would add ~1 ms where a \
     substantial part of the page is copied"
