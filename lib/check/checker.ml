module Obs = Locus_core.Obs

type violation =
  | Dirty_read of {
      reader : Txid.t;
      writer : Owner.t;
      fid : File_id.t;
      range : Byte_range.t;
      at : int;
    }
  | Cycle of Txid.t list
  | Stale_read of {
      reader : Txid.t;
      fid : File_id.t;
      range : Byte_range.t;
      version : int;
      at : int;
    }
  | Fenced_grant of {
      fid : File_id.t;
      site : int;
      owner_site : int;
      epoch : int;
      at : int;
    }
  | Dup_apply of {
      client : int;
      seq : int;
      site : int;
      label : string;
      at : int;
    }

type classified = { violation : violation; permitted : bool }

type report = {
  committed : Txid.t list;
  aborted : Txid.t list;
  unresolved : Txid.t list;
  reads_checked : int;
  edges : (Txid.t * Txid.t) list;
  violations : classified list;
}

(* One recorded write, with a status that evolves as the chronological
   scan passes the owner's commit / abort events. *)
type wstatus = Pending | Wcommitted | Waborted

type wrec = {
  w_owner : Owner.t;
  w_range : Byte_range.t;
  w_relaxed : bool;
  w_data : string;  (* the written bytes, for one-copy staleness checks *)
  mutable w_status : wstatus;
}

(* A transaction's data access, kept for conflict-graph construction. *)
type op = {
  o_idx : int;
  o_txid : Txid.t;
  o_write : bool;
  o_range : Byte_range.t;
  o_relaxed : bool;
}

type dirty_candidate = {
  d_reader : Txid.t;
  d_reader_relaxed : bool;
  d_writer : Owner.t;
  d_writer_relaxed : bool;
  d_fid : File_id.t;
  d_range : Byte_range.t;
  d_at : int;
}

(* A replica read whose data matches neither the live overlay nor the
   committed-only overlay of the write history (or that missed the
   reader's own pending write): the copy served a stale version. *)
type stale_candidate = {
  s_reader : Txid.t;
  s_reader_relaxed : bool;
  s_degraded : bool;
  s_fid : File_id.t;
  s_range : Byte_range.t;
  s_version : int;
  s_at : int;
}

module Tx_tbl = Hashtbl
module Int_tbl = Hashtbl.Make (Int)

(* Tarjan's strongly-connected components over the dense nodes
   0..v-1 of an adjacency array: node x's out-edges are the edges
   off.(x) .. off.(x+1)-1, edge e leads to [dst e], and only the edges
   [follow] accepts are walked. Returns the components of two or more
   nodes — the cycles — each sorted ascending, in ascending order. *)
let cycles ~off ~dst ~follow =
  let v = Array.length off - 1 in
  let index = Array.make v (-1) and lowlink = Array.make v 0 in
  let on_stack = Array.make v false in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strongconnect x =
    index.(x) <- !counter;
    lowlink.(x) <- !counter;
    incr counter;
    stack := x :: !stack;
    on_stack.(x) <- true;
    for e = off.(x) to off.(x + 1) - 1 do
      if follow e then begin
        let y = dst e in
        if index.(y) < 0 then begin
          strongconnect y;
          lowlink.(x) <- min lowlink.(x) lowlink.(y)
        end
        else if on_stack.(y) then lowlink.(x) <- min lowlink.(x) index.(y)
      end
    done;
    if lowlink.(x) = index.(x) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | y :: rest ->
            stack := rest;
            on_stack.(y) <- false;
            if y = x then y :: acc else pop (y :: acc)
      in
      match pop [] with
      | [ _ ] -> ()
      | scc -> out := List.sort Int.compare scc :: !out
    end
  in
  for x = 0 to v - 1 do
    if index.(x) < 0 then strongconnect x
  done;
  List.sort (List.compare Int.compare) !out

let check history =
  let events = Array.of_list (History.events history) in
  let n = Array.length events in
  (* Transaction bookkeeping: first Begin / first outcome win, so the
     duplicate outcome events that recovery replay can emit are harmless. *)
  let begun : (Txid.t, int) Tx_tbl.t = Tx_tbl.create 16 in
  let outcomes : (Txid.t, [ `Committed | `Aborted ] * int) Tx_tbl.t =
    Tx_tbl.create 16
  in
  (* Active §3.4 non-transaction locks, per (owner, file). *)
  let nt : (Owner.t * File_id.t, Range_set.t ref) Tx_tbl.t =
    Tx_tbl.create 16
  in
  (* Writes per file, newest first; also indexed by owner and by
     (owner, file) so outcome events can update statuses. *)
  let writes : (File_id.t, wrec list ref) Tx_tbl.t = Tx_tbl.create 16 in
  let by_owner : (Owner.t, wrec list ref) Tx_tbl.t = Tx_tbl.create 16 in
  let by_owner_file : (Owner.t * File_id.t, wrec list ref) Tx_tbl.t =
    Tx_tbl.create 16
  in
  let ops : (File_id.t, op list ref) Tx_tbl.t = Tx_tbl.create 16 in
  let dirty = ref [] in
  let stale = ref [] in
  (* Epoch-fence oracle (locus_shard): [Migrate] events name, per fid,
     the one site allowed to grant locks from then on (highest epoch
     wins). Grants before a fid's first migration are unchecked — the
     epoch-0 owner is not observable from the history alone. *)
  let shard_owner : (File_id.t, int * int) Tx_tbl.t = Tx_tbl.create 8 in
  let fenced = ref [] in
  (* Exactly-once oracle (locus_chaos): a rid-tagged request may execute
     its handler at most once per (client incarnation, server incarnation)
     pair — the reply cache must absorb every further wire copy. A second
     [Rpc_exec] with the same key is a double application (a merge counted
     twice, a file created twice, ...). The server-incarnation component
     makes post-crash re-execution benign: the crash wiped the first
     execution's volatile effects along with the cache. *)
  let rpc_execs : (int * int * int * int * int, unit) Tx_tbl.t =
    Tx_tbl.create 64
  in
  let dup_applies = ref [] in
  let reads_checked = ref 0 in
  let push tbl key v =
    match Tx_tbl.find_opt tbl key with
    | Some r -> r := v :: !r
    | None -> Tx_tbl.replace tbl key (ref [ v ])
  in
  let nt_set owner fid =
    match Tx_tbl.find_opt nt (owner, fid) with
    | Some r -> !r
    | None -> Range_set.empty
  in
  let relaxed owner fid range =
    match owner with
    | Owner.Process _ -> true
    | Owner.Transaction _ -> Range_set.overlaps range (nt_set owner fid)
  in
  let settle status = function
    | Owner.Transaction _ as o -> (
        (* all files of the owner settle at the transaction outcome *)
        match Tx_tbl.find_opt by_owner o with
        | None -> ()
        | Some l ->
            List.iter
              (fun w -> if w.w_status = Pending then w.w_status <- status)
              !l)
    | Owner.Process _ -> ()
  in
  let settle_file status owner fid =
    match Tx_tbl.find_opt by_owner_file (owner, fid) with
    | None -> ()
    | Some l ->
        List.iter
          (fun w -> if w.w_status = Pending then w.w_status <- status)
          !l
  in
  let record_op i owner fid range ~write ~relaxed =
    match owner with
    | Owner.Transaction txid ->
        push ops fid
          { o_idx = i; o_txid = txid; o_write = write; o_range = range;
            o_relaxed = relaxed }
    | Owner.Process _ -> ()
  in
  (* Rebuild what the read range should contain under an overlay of the
     writes recorded so far (newest shadowing oldest), keeping only the
     writes [keep] selects. Bytes no kept write ever covered read as
     zeros, matching the filestore's hole semantics. *)
  let expected_bytes wl ~range ~keep =
    let lo = Byte_range.lo range and len = Byte_range.len range in
    let out = Bytes.make len '\000' in
    let filled = Array.make len false in
    List.iter
      (fun w ->
        if keep w.w_status then begin
          let wlo = Byte_range.lo w.w_range in
          let from = max lo wlo and upto = min (lo + len) (Byte_range.hi w.w_range) in
          for b = from to upto - 1 do
            if not filled.(b - lo) then begin
              filled.(b - lo) <- true;
              if b - wlo < String.length w.w_data then
                Bytes.set out (b - lo) w.w_data.[b - wlo]
            end
          done
        end)
      wl;
    Bytes.to_string out
  in
  (* Walk the file's writes newest first, exactly mirroring the
     filestore's overlay: live (committed or still-pending) writes shadow
     older data. Flag every pending non-own write the read observed.
     Writes that miss the read are skipped without touching the range
     sets, and the walk stops once the read is fully shadowed. *)
  let observe_pending ~at ~reader ~reader_relaxed ~fid ~range wl =
    let owner = Owner.Transaction reader in
    let rec walk remaining = function
      | [] -> ()
      | w :: older
        when w.w_status = Waborted || not (Byte_range.overlaps w.w_range range)
        ->
          walk remaining older
      | w :: older ->
          let cover = Range_set.inter remaining (Range_set.of_range w.w_range) in
          if Range_set.is_empty cover then walk remaining older
          else begin
            if w.w_status = Pending && not (Owner.equal w.w_owner owner) then
              dirty :=
                { d_reader = reader; d_reader_relaxed = reader_relaxed;
                  d_writer = w.w_owner; d_writer_relaxed = w.w_relaxed;
                  d_fid = fid;
                  d_range = List.hd (Range_set.ranges cover);
                  d_at = at }
                :: !dirty;
            let remaining = Range_set.diff remaining cover in
            if not (Range_set.is_empty remaining) then walk remaining older
          end
    in
    walk (Range_set.of_range range) wl
  in
  for i = 0 to n - 1 do
    let { Obs.at; site; ev } = events.(i) in
    match ev with
    | Obs.Begin { txid; _ } ->
        if not (Tx_tbl.mem begun txid) then Tx_tbl.replace begun txid i
    | Obs.Commit { txid } ->
        if not (Tx_tbl.mem outcomes txid) then begin
          Tx_tbl.replace outcomes txid (`Committed, i);
          settle Wcommitted (Owner.Transaction txid)
        end
    | Obs.Abort { txid } ->
        if not (Tx_tbl.mem outcomes txid) then begin
          Tx_tbl.replace outcomes txid (`Aborted, i);
          settle Waborted (Owner.Transaction txid)
        end
    | Obs.File_commit { owner; fid } -> settle_file Wcommitted owner fid
    | Obs.File_abort { owner; fid } -> settle_file Waborted owner fid
    | Obs.Lock { owner; fid; range; non_transaction; _ } ->
        (match Tx_tbl.find_opt shard_owner fid with
        | Some (osite, epoch) when osite <> site ->
            fenced :=
              { violation =
                  Fenced_grant { fid; site; owner_site = osite; epoch; at };
                permitted = false }
              :: !fenced
        | Some _ | None -> ());
        if non_transaction then begin
          (match Tx_tbl.find_opt nt (owner, fid) with
          | Some r -> r := Range_set.add range !r
          | None -> Tx_tbl.replace nt (owner, fid) (ref (Range_set.of_range range)))
        end
    | Obs.Unlock { owner; fid; range; _ } -> (
        match Tx_tbl.find_opt nt (owner, fid) with
        | Some r -> r := Range_set.remove range !r
        | None -> ())
    | Obs.Write { owner; fid; range; data; _ } ->
        let rlx = relaxed owner fid range in
        let w =
          { w_owner = owner; w_range = range; w_relaxed = rlx;
            w_data = data; w_status = Pending }
        in
        push writes fid w;
        push by_owner owner w;
        push by_owner_file (owner, fid) w;
        record_op i owner fid range ~write:true ~relaxed:rlx
    | Obs.Read { owner; fid; range; _ } ->
        incr reads_checked;
        let rlx = relaxed owner fid range in
        record_op i owner fid range ~write:false ~relaxed:rlx;
        (* Who does this read observe? Aborted writes were discarded;
           everything else shadows the committed base image. *)
        (match owner with
        | Owner.Process _ -> ()
        | Owner.Transaction reader ->
            let wl =
              match Tx_tbl.find_opt writes fid with Some r -> !r | None -> []
            in
            observe_pending ~at ~reader ~reader_relaxed:rlx ~fid ~range wl)
    | Obs.Replica_read { access = { owner; fid; range; data; _ }; version;
                         degraded } ->
        incr reads_checked;
        let rlx = relaxed owner fid range in
        record_op i owner fid range ~write:false ~relaxed:rlx;
        (* One-copy serializability: the bytes a replicated volume served
           must match either the live overlay (what the primary would
           serve) or the committed-only overlay (what a fresh secondary
           serves) — anything else means the copy missed a committed
           update. A committed-only match is no excuse when the reader
           itself has a pending overlapping write: that would be a lost
           read-your-writes. *)
        (match owner with
        | Owner.Process _ -> ()
        | Owner.Transaction reader ->
            let wl =
              match Tx_tbl.find_opt writes fid with Some r -> !r | None -> []
            in
            let live = expected_bytes wl ~range ~keep:(fun s -> s <> Waborted) in
            let committed_only =
              expected_bytes wl ~range ~keep:(fun s -> s = Wcommitted)
            in
            if String.equal data live then begin
              if not (String.equal data committed_only) then
                (* The read observed someone's pending bytes: exactly the
                   dirty-read analysis of an unreplicated read. *)
                observe_pending ~at ~reader ~reader_relaxed:rlx ~fid ~range wl
            end
            else begin
              let own_pending =
                List.exists
                  (fun w ->
                    Owner.equal w.w_owner owner
                    && w.w_status = Pending
                    && Byte_range.overlaps w.w_range range)
                  wl
              in
              if String.equal data committed_only && not own_pending then ()
              else
                stale :=
                  { s_reader = reader; s_reader_relaxed = rlx;
                    s_degraded = degraded; s_fid = fid; s_range = range;
                    s_version = version; s_at = at }
                  :: !stale
            end)
    | Obs.Migrate { fid; from_site = _; to_site; epoch } -> (
        (* Emission order is causal, but a straggler install can still
           surface after a re-home raced past it: highest epoch wins. *)
        match Tx_tbl.find_opt shard_owner fid with
        | Some (_, e) when epoch < e -> ()
        | Some _ | None -> Tx_tbl.replace shard_owner fid (to_site, epoch))
    | Obs.Rpc_exec { client; inc; seq; site_inc; label } ->
        let key = (client, inc, seq, site, site_inc) in
        if Tx_tbl.mem rpc_execs key then
          dup_applies :=
            { violation = Dup_apply { client; seq; site; label; at };
              permitted = false }
            :: !dup_applies
        else Tx_tbl.replace rpc_execs key ()
    | Obs.Propagate _ | Obs.Reconcile _ | Obs.Failover _ | Obs.Net_fault _
    | Obs.Alarm _ ->
        (* Replication housekeeping / injected chaos / health watchdog
           events: not data accesses. The health oracles read Alarm
           records straight from the trace, not through this graph. *)
        ()
  done;
  let committed, aborted =
    Tx_tbl.fold
      (fun txid _ (c, a) ->
        match Tx_tbl.find_opt outcomes txid with
        | Some (`Committed, _) -> (txid :: c, a)
        | Some (`Aborted, _) -> (c, txid :: a)
        | None -> (c, a))
      begun ([], [])
  in
  let unresolved =
    Tx_tbl.fold
      (fun txid _ acc ->
        if Tx_tbl.mem outcomes txid then acc else txid :: acc)
      begun []
  in
  let committed = List.sort Txid.compare committed in
  let aborted = List.sort Txid.compare aborted in
  let unresolved = List.sort Txid.compare unresolved in
  let is_committed txid =
    match Tx_tbl.find_opt outcomes txid with
    | Some (`Committed, _) -> true
    | _ -> false
  in
  (* Dirty reads: only reads by transactions that went on to commit are
     violations — an aborted reader's results were discarded with it. *)
  let dirty_violations =
    List.rev_map
      (fun d ->
        let writer_process =
          match d.d_writer with Owner.Process _ -> true | _ -> false
        in
        { violation =
            Dirty_read
              { reader = d.d_reader; writer = d.d_writer; fid = d.d_fid;
                range = d.d_range; at = d.d_at };
          permitted =
            d.d_reader_relaxed || d.d_writer_relaxed || writer_process })
      (List.filter (fun d -> is_committed d.d_reader) !dirty)
  in
  (* Stale replica reads: §3.4-relaxed readers tolerate them, and a
     degraded copy answering because the primary is unreachable is the
     deliberate availability/consistency trade — permitted, flagged. *)
  let stale_violations =
    List.rev_map
      (fun s ->
        { violation =
            Stale_read
              { reader = s.s_reader; fid = s.s_fid; range = s.s_range;
                version = s.s_version; at = s.s_at };
          permitted = s.s_reader_relaxed || s.s_degraded })
      (List.filter (fun s -> is_committed s.s_reader) !stale)
  in
  (* Conflict graph over committed transactions: an edge a -> b for every
     pair of overlapping accesses to the same file, at least one a write,
     with a's access first. An edge is strict unless every generating pair
     involved a §3.4-relaxed access.

     Nodes are dense ids 0..v-1 given to the committed txids in Txid
     order, so id order is txid order. Each edge is stored once, keyed
     by a*v+b, holding its strict flag. *)
  let nodes =
    Tx_tbl.fold
      (fun txid (o, _) acc -> if o = `Committed then txid :: acc else acc)
      outcomes []
    |> List.sort Txid.compare |> Array.of_list
  in
  let v = Array.length nodes in
  let id_of : (Txid.t, int) Tx_tbl.t = Tx_tbl.create (max 16 v) in
  Array.iteri (fun x txid -> Tx_tbl.replace id_of txid x) nodes;
  let edge_tbl : bool Int_tbl.t = Int_tbl.create 64 in
  let add_edge a b strict =
    let k = (a * v) + b in
    match Int_tbl.find_opt edge_tbl k with
    | Some true -> ()
    | Some false | None -> Int_tbl.replace edge_tbl k strict
  in
  (* Per file, a sweep line over the committed accesses in (lo, o_idx)
     order. The active ops are the earlier ones whose [hi] is past the
     current [lo]: exactly those overlapping the current op, so each
     overlapping pair is visited once. *)
  Tx_tbl.iter
    (fun _fid opsr ->
      let arr =
        Array.of_list
          (List.filter_map
             (fun o -> Option.map (fun x -> (x, o)) (Tx_tbl.find_opt id_of o.o_txid))
             !opsr)
      in
      Array.sort
        (fun (_, a) (_, b) ->
          match Int.compare (Byte_range.lo a.o_range) (Byte_range.lo b.o_range) with
          | 0 -> Int.compare a.o_idx b.o_idx
          | c -> c)
        arr;
      let active = Array.make (Array.length arr) 0 and live = ref 0 in
      Array.iteri
        (fun j (xb, b) ->
          let lo = Byte_range.lo b.o_range and kept = ref 0 in
          for k = 0 to !live - 1 do
            let i = active.(k) in
            let xa, a = arr.(i) in
            if Byte_range.hi a.o_range > lo then begin
              active.(!kept) <- i;
              incr kept;
              if (a.o_write || b.o_write) && xa <> xb then begin
                let strict = (not a.o_relaxed) && not b.o_relaxed in
                if a.o_idx < b.o_idx then add_edge xa xb strict
                else add_edge xb xa strict
              end
            end
          done;
          active.(!kept) <- j;
          live := !kept + 1)
        arr)
    ops;
  (* Each edge packed into one int, 2*(a*v+b) + strict, and the table
     freed: it and the report's edge list together would set the
     checker's peak heap. Sorted, the packed edges are node 0's out-edges,
     then node 1's, ... in (a, b) order: an adjacency array. *)
  let n_edges = Int_tbl.length edge_tbl in
  let packed = Array.make n_edges 0 and filled = ref 0 in
  Int_tbl.iter
    (fun k s ->
      packed.(!filled) <- (2 * k) + Bool.to_int s;
      incr filled)
    edge_tbl;
  Int_tbl.reset edge_tbl;
  Array.sort Int.compare packed;
  let src e = packed.(e) / 2 / v and dst e = packed.(e) / 2 mod v in
  let off = Array.make (v + 1) 0 in
  for e = 0 to n_edges - 1 do
    off.(src e + 1) <- off.(src e + 1) + 1
  done;
  for x = 1 to v do
    off.(x) <- off.(x) + off.(x - 1)
  done;
  let edges = ref [] in
  for e = n_edges - 1 downto 0 do
    edges := (nodes.(src e), nodes.(dst e)) :: !edges
  done;
  let strict_cycles = cycles ~off ~dst ~follow:(fun e -> packed.(e) land 1 = 1) in
  let all_cycles = cycles ~off ~dst ~follow:(fun _ -> true) in
  let cycle c permitted =
    { violation = Cycle (List.map (Array.get nodes) c); permitted }
  in
  let cycle_violations =
    List.map (fun c -> cycle c false) strict_cycles
    @ List.filter_map
        (fun c -> if List.mem c strict_cycles then None else Some (cycle c true))
        all_cycles
  in
  { committed; aborted; unresolved;
    reads_checked = !reads_checked;
    edges = !edges;
    violations =
      dirty_violations @ stale_violations @ List.rev !fenced
      @ List.rev !dup_applies @ cycle_violations }

let unpermitted r = List.filter (fun c -> not c.permitted) r.violations
let permitted r = List.filter (fun c -> c.permitted) r.violations
let ok r = unpermitted r = []

let pp_violation ppf = function
  | Dirty_read { reader; writer; fid; range; at } ->
      Fmt.pf ppf "dirty read: %a read %a %a from uncommitted %a at t=%d"
        Txid.pp reader File_id.pp fid Byte_range.pp range Owner.pp writer at
  | Cycle txids ->
      Fmt.pf ppf "conflict cycle: %a" (Fmt.list ~sep:Fmt.sp Txid.pp) txids
  | Stale_read { reader; fid; range; version; at } ->
      Fmt.pf ppf
        "stale replica read: %a read %a %a (copy version %d) missing \
         committed data at t=%d"
        Txid.pp reader File_id.pp fid Byte_range.pp range version at
  | Fenced_grant { fid; site; owner_site; epoch; at } ->
      Fmt.pf ppf
        "fenced grant: site%d granted a lock on %a but the e%d migration \
         made site%d its lock manager (t=%d)"
        site File_id.pp fid epoch owner_site at
  | Dup_apply { client; seq; site; label; at } ->
      Fmt.pf ppf
        "duplicate apply: site%d executed %s from client site%d (seq %d) \
         twice in one incarnation (t=%d)"
        site label client seq at

let pp_classified ppf c =
  Fmt.pf ppf "[%s] %a"
    (if c.permitted then "permitted" else "VIOLATION")
    pp_violation c.violation

let pp ppf r =
  Fmt.pf ppf
    "@[<v>committed=%d aborted=%d unresolved=%d reads=%d edges=%d@,%a@]"
    (List.length r.committed) (List.length r.aborted)
    (List.length r.unresolved) r.reads_checked (List.length r.edges)
    (Fmt.list ~sep:Fmt.cut pp_classified)
    r.violations
