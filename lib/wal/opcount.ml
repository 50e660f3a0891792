type placement = Sequential | Random_within of int

type params = {
  page_size : int;
  record_size : int;
  records_per_txn : int;
  placement : placement;
  files : int;
  volumes : int;
  log_header_bytes : int;
}

let default_params =
  {
    page_size = 1024;
    record_size = 128;
    records_per_txn = 1;
    placement = Sequential;
    files = 1;
    volumes = 1;
    log_header_bytes = 24;
  }

type breakdown = {
  data_page_writes : int;
  log_writes : int;
  inode_writes : int;
  foreground : int;
  deferred : int;
  total : int;
}

let ceil_div a b = (a + b - 1) / b

let pages_touched p =
  let n = p.records_per_txn in
  if n = 0 then 0
  else begin
    match p.placement with
    | Sequential ->
      (* Packed records: bytes spanned, ignoring alignment slack. *)
      max 1 (ceil_div (n * p.record_size) p.page_size)
    | Random_within file_pages ->
      (* Occupancy expectation: m * (1 - (1 - 1/m)^n), with each record
         also possibly straddling a page boundary when larger than a
         page. *)
      let per_record_pages = max 1 (ceil_div p.record_size p.page_size) in
      let m = float_of_int (max 1 file_pages) in
      let hits = float_of_int (n * per_record_pages) in
      let expected = m *. (1.0 -. ((1.0 -. (1.0 /. m)) ** hits)) in
      max 1 (int_of_float (Float.round expected))
  end

let shadow p =
  let pages = pages_touched p in
  let log_writes = 1 (* coordinator record *) + p.volumes (* prepare logs *) + 1
  (* commit mark *) in
  let data_page_writes = pages in
  let inode_writes = p.files in
  let foreground = log_writes + data_page_writes in
  let deferred = inode_writes in
  {
    data_page_writes;
    log_writes;
    inode_writes;
    foreground;
    deferred;
    total = foreground + deferred;
  }

let wal p =
  let pages = pages_touched p in
  let record_bytes = p.records_per_txn * (p.record_size + p.log_header_bytes) in
  let commit_record = 32 in
  let log_writes = max 1 (ceil_div (record_bytes + commit_record) p.page_size) in
  let data_page_writes = 0 in
  let foreground = log_writes in
  let deferred = pages (* in-place writes at checkpoint *) in
  {
    data_page_writes;
    log_writes;
    inode_writes = 0;
    foreground;
    deferred;
    total = foreground + deferred;
  }

let crossover_record_size () =
  let rec scan size =
    if size > default_params.page_size then None
    else begin
      let p = { default_params with record_size = size; records_per_txn = 4 } in
      if (shadow p).total <= (wal p).total then Some size
      else scan (size + 16)
    end
  in
  scan 16

let pp_breakdown ppf b =
  Fmt.pf ppf "data=%d log=%d inode=%d | fg=%d bg=%d total=%d" b.data_page_writes
    b.log_writes b.inode_writes b.foreground b.deferred b.total
