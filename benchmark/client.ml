(* The benchmark's own transaction client, shared by the [ladder] and
   [hotspot] workloads.

   Records live in one file per site ("stripe" [i] on volume [i]); a
   transaction works its home site's stripe except for a cross-site
   share of its ops. A client fiber spawns one transaction process per
   transaction and waits for it to exit. In a traced run every Api call
   the process makes is timed on the virtual clock and charged to one
   ledger category, so the charges of a transaction add up to its
   sojourn: due time to process exit. *)

module L = Locus_core.Locus
module Api = Locus_core.Api
module K = Locus_core.Kernel
module Engine = Locus_sim.Engine
module Prng = Locus_sim.Prng

let rec_len = 16
let path_of i = Printf.sprintf "/bench/stripe%d" i
let encode v = Printf.sprintf "%016d" v
let decode s = int_of_string (String.trim s)

type op = { stripe : int; record : int; update : bool }
type txn = { site : int; ops : op list }

type shape = {
  sites : int;
  records : int;  (** records per stripe *)
  stride : int;
      (** bytes from one record to the next: [rec_len] packs records into
          shared pages, a page size gives every record its own page *)
  zipf_s : float;  (** record popularity exponent within a stripe *)
  read_frac : float;
  ops_min : int;
  ops_max : int;
  remote_frac : float;  (** share of ops sent to another site's stripe *)
}

let gen_txn shape prng zipf =
  let site = Prng.int prng shape.sites in
  let n = Prng.int_in prng ~lo:shape.ops_min ~hi:shape.ops_max in
  let ops =
    List.init n (fun _ ->
        let stripe =
          if shape.sites > 1 && Prng.float prng 1.0 < shape.remote_frac then
            (site + 1 + Prng.int prng (shape.sites - 1)) mod shape.sites
          else site
        in
        let record = Locus_load.Zipf.sample zipf prng in
        { stripe; record; update = Prng.float prng 1.0 >= shape.read_frac })
  in
  { site; ops }

(* {1 The ledger} *)

let categories =
  [| "spawn"; "open"; "begin"; "seek"; "lock"; "read"; "write"; "commit";
     "close"; "exit" |]

let c_spawn = 0
let c_open = 1
let c_begin = 2
let c_seek = 3
let c_lock = 4
let c_read = 5
let c_write = 6
let c_commit = 7
let c_close = 8
let c_exit = 9

type outcome = Pending | Committed | Aborted

type record = {
  txn : txn;
  due : int;  (** virtual instant the transaction was due *)
  mutable started : int;
  mutable body_end : int;
  mutable exited : int;  (** -1 until the process has exited *)
  mutable outcome : outcome;
  mutable calls : (int * int * int) list;
      (** [(category, start, stop)] of each timed Api call, traced runs only *)
}

let record txn ~due =
  { txn; due; started = -1; body_end = -1; exited = -1; outcome = Pending; calls = [] }

let updates r = List.length (List.filter (fun op -> op.update) r.txn.ops)
let sojourn r = r.exited - r.due

(* Sojourns of the transactions whose process exited. *)
let sojourns recs = List.filter_map (fun r -> if r.exited >= 0 then Some (sojourn r) else None) recs

(* The transaction process body: the paper's bank-style record increment,
   one stripe channel per file touched. *)
let body ~traced ~shape eng r env =
  r.started <- Engine.now eng;
  let timed cat f =
    if not traced then f ()
    else begin
      let t0 = Engine.now eng in
      Fun.protect
        ~finally:(fun () -> r.calls <- (cat, t0, Engine.now eng) :: r.calls)
        f
    end
  in
  let chans = Array.make shape.sites (-1) in
  let chan i =
    if chans.(i) < 0 then
      chans.(i) <- timed c_open (fun () -> Api.open_file env (path_of i));
    chans.(i)
  in
  let run_op op =
    let c = chan op.stripe in
    let pos = op.record * shape.stride in
    let mode = if op.update then L.Mode.Exclusive else L.Mode.Shared in
    timed c_seek (fun () -> Api.seek env c ~pos);
    ignore (timed c_lock (fun () -> Api.lock env c ~len:rec_len ~mode ()));
    let v = timed c_read (fun () -> Api.pread env c ~pos ~len:rec_len) in
    if op.update then
      let next = encode (decode (Bytes.to_string v) + 1) in
      timed c_write (fun () -> Api.pwrite env c ~pos (Bytes.of_string next))
  in
  match
    timed c_begin (fun () -> Api.begin_trans env);
    List.iter run_op r.txn.ops;
    timed c_commit (fun () -> Api.end_trans env)
  with
  | outcome ->
    r.outcome <- (match outcome with K.Committed -> Committed | K.Aborted -> Aborted);
    Array.iter (fun c -> if c >= 0 then timed c_close (fun () -> Api.close env c)) chans;
    r.body_end <- Engine.now eng
  | exception ((Api.Error _ | Api.Process_failure _ | Engine.Killed) as e) ->
    (* The process dies (a deadlock victim is killed); the kernel aborts
       its transaction. *)
    r.outcome <- Aborted;
    r.body_end <- Engine.now eng;
    raise e

(* Spawn the transaction's process and wait for it to exit. Must run in a
   fiber (the client's). *)
let run_txn ~traced ~shape cl r =
  let eng = K.engine cl in
  let pid =
    Api.spawn_process cl ~site:r.txn.site ~name:"bench-txn"
      (body ~traced ~shape eng r)
  in
  Engine.await (Api.exit_of cl pid);
  r.exited <- Engine.now eng

(* {1 Cluster set-up and the output oracle} *)

let make_cluster ~seed ~sites =
  L.make ~seed ~config:(K.Config.default ~n_sites:sites) ~n_sites:sites ()

(* Data-file initialisation: every stripe created on its own site's
   volume, all records zero. Drains the engine. *)
let init_data sim shape =
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 ~name:"bench-init" (fun env ->
         let slot = encode 0 ^ String.make (shape.stride - rec_len) ' ' in
         for i = 0 to shape.sites - 1 do
           let c = Api.creat env (path_of i) ~vid:i in
           Api.write_string env c (String.concat "" (List.init shape.records (fun _ -> slot)));
           Api.close env c
         done));
  L.run sim

(* After the drain: every transaction ended, and the committed record
   values add up to the increments of the committed transactions. *)
let check sim shape recs =
  let cl = sim.L.cluster in
  let pending = List.length (List.filter (fun r -> r.exited < 0) recs) in
  let expected =
    List.fold_left
      (fun acc r -> if r.outcome = Committed then acc + updates r else acc)
      0 recs
  in
  let sum = ref 0 and missing = ref [] in
  for i = 0 to shape.sites - 1 do
    match K.lookup cl (path_of i) with
    | None -> missing := path_of i :: !missing
    | Some fid ->
      let s = K.read_committed_oracle cl fid in
      for j = 0 to shape.records - 1 do
        sum := !sum + decode (String.sub s (j * shape.stride) rec_len)
      done
  done;
  (if pending > 0 then [ Printf.sprintf "%d transactions never exited" pending ] else [])
  @ List.map (Printf.sprintf "stripe %s missing") !missing
  @
  if !sum <> expected then
    [ Printf.sprintf "committed record sum %d, committed increments %d" !sum expected ]
  else []

(* {1 Spans} *)

(* One root [bench.txn] span per transaction with a child per ledger
   charge, on the virtual clock. *)
let add_spans sp recs =
  List.iter
    (fun r ->
      if r.exited >= 0 then begin
        let root = Span.fresh sp in
        let trace = root in
        let child cat a b =
          Span.add sp ~id:(Span.fresh sp) ~parent:root ~trace ~clock:Span.Virtual
            ("api." ^ categories.(cat)) ~start_us:(float_of_int a)
            ~stop_us:(float_of_int b)
        in
        Span.add sp ~id:root ~trace ~clock:Span.Virtual "bench.txn"
          ~start_us:(float_of_int r.due) ~stop_us:(float_of_int r.exited);
        child c_spawn r.due r.started;
        List.iter (fun (cat, a, b) -> child cat a b) (List.rev r.calls);
        child c_exit r.body_end r.exited
      end)
    recs
