let no_waits table = Locus_lock.Lock_table.waiting table = 0

(* Most scans find every wait already granted or cancelled: such a scan
   builds no graph and allocates nothing. *)
let victims tables =
  if List.for_all no_waits tables then [] else Wfg.victims (Wfg.of_tables tables)

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
