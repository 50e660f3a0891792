let victims tables = Wfg.victims (Wfg.of_tables tables)

let scan_report tables =
  let g = Wfg.of_tables tables in
  let rec collect acc =
    match Wfg.find_cycle g with
    | None -> List.rev acc
    | Some cycle ->
      List.iter (Wfg.remove g) cycle;
      collect (cycle :: acc)
  in
  match collect [] with [] -> `No_deadlock | cycles -> `Deadlocked cycles
