type error = Timeout | No_handler

let pp_error ppf = function
  | Timeout -> Fmt.string ppf "timeout"
  | No_handler -> Fmt.string ppf "no-handler"

(* Lossy-network fault model (locus_chaos). Every probability draw comes
   from a PRNG split off the engine's seed stream, so a faulty run is
   exactly as deterministic as a clean one. With no faults configured the
   delivery path below is bit-for-bit the historical reliable model. *)
type faults = {
  drop : float;  (* per-message loss probability *)
  dup : float;  (* per-message duplication probability *)
  jitter_us : int;  (* extra uniform delay in [0, jitter_us] *)
  reorder : int;  (* reorder window: up to this many extra latencies *)
}

let no_faults = { drop = 0.; dup = 0.; jitter_us = 0; reorder = 0 }

type fault_kind = [ `Drop | `Dup | `Reorder ]

let pp_fault_kind ppf = function
  | `Drop -> Fmt.string ppf "drop"
  | `Dup -> Fmt.string ppf "dup"
  | `Reorder -> Fmt.string ppf "reorder"

type ('req, 'resp) site_state = {
  id : Site.t;
  mutable up : bool;
  mutable incarnation : int;
  mutable group : int;
  mutable handler : (src:Site.t -> 'req -> 'resp) option;
}

(* How to pack several requests for one destination into a single wire
   message and unpack the single reply. The transport is payload-agnostic:
   the kernel supplies the envelope codec ([Msg.Batch] and its replies). *)
type ('req, 'resp) batch_cfg = {
  wrap : 'req list -> 'req;
  unwrap : 'resp -> 'resp list option;
  trace : site:Site.t -> size:int -> (unit -> unit) -> unit;
}

type ('req, 'resp) t = {
  engine : Engine.t;
  latency_us : int;
  rpc_timeout_us : int;
  states : ('req, 'resp) site_state array;
  mutable next_group : int;
  mutable crash_watchers : (Site.t -> unit) list;
  mutable restart_watchers : (Site.t -> unit) list;
  mutable topology_watchers : (unit -> unit) list;
  mutable batch_window_us : int;
  mutable batch_cfg : ('req, 'resp) batch_cfg option;
  batchers :
    ( Site.t * Site.t,
      ('req * ('resp, error) result Engine.Ivar.t) Locus_batch.Batcher.t )
    Hashtbl.t;
  mutable faults : faults option;  (* cluster-wide default (None = reliable) *)
  link_faults : (Site.t * Site.t, faults option) Hashtbl.t;  (* per-link override *)
  mutable fault_prng : Prng.t option;  (* split lazily: clean runs never draw *)
  mutable fault_watchers : (src:Site.t -> dst:Site.t -> fault_kind -> unit) list;
  (* Highest delivery time already scheduled per link, to count actual
     overtakes (a jittered copy only "reorders" if something sent later
     will arrive before it). *)
  reorder_mark : (Site.t * Site.t, int) Hashtbl.t;
}

let default_rpc_timeout_us = 30_000_000

let create ?(rpc_timeout_us = default_rpc_timeout_us) engine ~n_sites =
  if n_sites <= 0 then invalid_arg "Transport.create: need at least one site";
  {
    engine;
    latency_us = (Engine.costs engine).Costs.msg_latency_us;
    rpc_timeout_us;
    states =
      Array.init n_sites (fun id ->
          { id; up = true; incarnation = 0; group = 0; handler = None });
    next_group = 1;
    crash_watchers = [];
    restart_watchers = [];
    topology_watchers = [];
    batch_window_us = 0;
    batch_cfg = None;
    batchers = Hashtbl.create 16;
    faults = None;
    link_faults = Hashtbl.create 4;
    fault_prng = None;
    fault_watchers = [];
    reorder_mark = Hashtbl.create 16;
  }

let engine t = t.engine
let n_sites t = Array.length t.states
let sites t = List.init (n_sites t) Fun.id

let state t s =
  if s < 0 || s >= Array.length t.states then
    invalid_arg (Printf.sprintf "Transport: unknown site %d" s);
  t.states.(s)

let set_handler t s h = (state t s).handler <- Some h
let site_up t s = (state t s).up

let reachable t a b =
  let sa = state t a and sb = state t b in
  sa.up && sb.up && (a = b || sa.group = sb.group)

let notify_topology t = List.iter (fun f -> f ()) (List.rev t.topology_watchers)

let crash t s =
  let st = state t s in
  if st.up then begin
    st.up <- false;
    st.incarnation <- st.incarnation + 1;
    Engine.kill_site t.engine s;
    (* Batches forming at the crashed site die with their flusher fibers;
       drop them eagerly so a restart starts from a clean window. *)
    Hashtbl.iter
      (fun (src, _) b -> if src = s then Locus_batch.Batcher.reset b)
      t.batchers;
    List.iter (fun f -> f s) (List.rev t.crash_watchers);
    notify_topology t
  end

let restart t s =
  let st = state t s in
  if not st.up then begin
    st.up <- true;
    st.incarnation <- st.incarnation + 1;
    List.iter (fun f -> f s) (List.rev t.restart_watchers);
    notify_topology t
  end

(* Each explicit group gets a fresh group number, so sites in different
   groups of this call — and sites of this call vs. any earlier call — are
   separated. Unmentioned sites keep their current group. *)
let partition t groups =
  List.iter
    (fun members ->
      let g = t.next_group in
      t.next_group <- t.next_group + 1;
      List.iter (fun s -> (state t s).group <- g) members)
    groups;
  notify_topology t

let heal t =
  Array.iter (fun st -> st.group <- 0) t.states;
  notify_topology t

let on_crash t f = t.crash_watchers <- f :: t.crash_watchers
let on_restart t f = t.restart_watchers <- f :: t.restart_watchers
let on_topology_change t f = t.topology_watchers <- f :: t.topology_watchers

let stats_incr t name = Stats.incr (Engine.stats t.engine) name

(* {2 Fault injection (locus_chaos)} *)

let set_faults t f = t.faults <- f

let set_link_faults t ~src ~dst f = Hashtbl.replace t.link_faults (src, dst) f

let faults_for t ~src ~dst =
  match Hashtbl.find_opt t.link_faults (src, dst) with
  | Some f -> f
  | None -> t.faults

let chaotic t = t.faults <> None || Hashtbl.length t.link_faults > 0

let on_fault t f = t.fault_watchers <- f :: t.fault_watchers

let notify_fault t ~src ~dst kind =
  List.iter (fun f -> f ~src ~dst kind) (List.rev t.fault_watchers)

(* The fault PRNG is split off the engine stream on first use only:
   configuring no faults must leave the engine's draw sequence — and so
   every schedule — bit-for-bit what it was before this layer existed. *)
let fault_prng t =
  match t.fault_prng with
  | Some p -> p
  | None ->
    let p = Prng.split (Engine.prng t.engine) in
    t.fault_prng <- Some p;
    p

(* Deliver [work] at [dst] after one-way latency, provided [dst] is still
   reachable from [src] and has not rebooted since the message was sent.
   This is the single choke point both the request and the reply leg go
   through, so the fault layer lives here: a configured link may drop the
   message, deliver a second copy, or add jittered delay large enough for
   later messages to overtake it. *)
let deliver t ~src ~dst work =
  let inc = (state t dst).incarnation in
  let fire () =
    if reachable t src dst && (state t dst).incarnation = inc then work ()
  in
  match faults_for t ~src ~dst with
  | None -> Engine.schedule ~delay:t.latency_us t.engine fire
  | Some f ->
    let prng = fault_prng t in
    let send_copy () =
      let jitter =
        (if f.jitter_us > 0 then Prng.int prng (f.jitter_us + 1) else 0)
        + (if f.reorder > 0 then Prng.int prng (f.reorder + 1) * t.latency_us else 0)
      in
      if jitter > 0 then Stats.hist (Engine.stats t.engine) "net.jitter_us" jitter;
      let arrival = Engine.now t.engine + t.latency_us + jitter in
      (* A delayed copy only counts as a reorder once a message scheduled
         to arrive later is already ahead of it on this link. *)
      (match Hashtbl.find_opt t.reorder_mark (src, dst) with
      | Some mark when arrival < mark ->
        stats_incr t "net.reorder";
        notify_fault t ~src ~dst `Reorder
      | Some _ | None -> Hashtbl.replace t.reorder_mark (src, dst) arrival);
      Engine.schedule ~delay:(t.latency_us + jitter) t.engine fire
    in
    if f.drop > 0. && Prng.float prng 1.0 < f.drop then begin
      stats_incr t "net.drop";
      notify_fault t ~src ~dst `Drop
    end
    else begin
      send_copy ();
      if f.dup > 0. && Prng.float prng 1.0 < f.dup then begin
        stats_incr t "net.dup";
        notify_fault t ~src ~dst `Dup;
        send_copy ()
      end
    end

let run_handler t ~src ~dst req ~on_reply =
  match (state t dst).handler with
  | None -> ()
  | Some h ->
    ignore
      (Engine.spawn ~name:(Printf.sprintf "netsrv@%d" dst) ~site:dst t.engine
         (fun () ->
           Engine.consume t.engine ~instr:(Engine.costs t.engine).Costs.msg_cpu_instr;
           let resp = h ~src req in
           on_reply resp))

let rpc_now t ~src ~dst req =
  let costs = Engine.costs t.engine in
  if src = dst then begin
    (* Local service: no wire, no message counters (§6.2 measures exactly
       this asymmetry). *)
    match (state t dst).handler with
    | None -> Error No_handler
    | Some h -> Ok (h ~src req)
  end
  else begin
    stats_incr t "net.msg";
    Engine.consume t.engine ~instr:costs.Costs.msg_cpu_instr;
    let reply = Engine.Ivar.create () in
    deliver t ~src ~dst (fun () ->
        run_handler t ~src ~dst req ~on_reply:(fun resp ->
            stats_incr t "net.msg";
            Engine.consume t.engine ~instr:costs.Costs.msg_cpu_instr;
            deliver t ~src:dst ~dst:src (fun () ->
                ignore (Engine.try_fill t.engine reply resp))));
    match Engine.await_timeout reply ~timeout:t.rpc_timeout_us with
    | Some resp -> Ok resp
    | None -> Error Timeout
  end

(* Flush one coalesced batch for a (src, dst) pair. A singleton avoids the
   envelope entirely; otherwise the requests travel as one wire message
   whose single reply is fanned back out to the waiters in order. If the
   reply cannot be unpacked (e.g. the destination answered the whole
   envelope with an error), every waiter sees the raw reply — errors
   propagate rather than vanish. *)
let flush_batch t cfg ~src ~dst items =
  let give iv r = ignore (Engine.try_fill t.engine iv r) in
  match items with
  | [] -> ()
  | [ (req, iv) ] -> give iv (rpc_now t ~src ~dst req)
  | _ ->
    let n = List.length items in
    let st = Engine.stats t.engine in
    Stats.incr st "rpc.batches";
    Stats.add st "rpc.batched" n;
    Stats.hist st "rpc.batch_size" n;
    Stats.add st "net.msg_saved" (2 * (n - 1));
    cfg.trace ~site:src ~size:n (fun () ->
        let result = rpc_now t ~src ~dst (cfg.wrap (List.map fst items)) in
        match result with
        | Ok resp -> (
          match cfg.unwrap resp with
          | Some resps when List.length resps = n ->
            List.iter2 (fun (_, iv) r -> give iv (Ok r)) items resps
          | _ -> List.iter (fun (_, iv) -> give iv result) items)
        | Error _ -> List.iter (fun (_, iv) -> give iv result) items)

let pair_batcher t ~src ~dst =
  let key = (src, dst) in
  let b =
    match Hashtbl.find_opt t.batchers key with
    | Some b -> b
    | None ->
      let b =
        Locus_batch.Batcher.create t.engine
          ~name:(Printf.sprintf "rpcbatch@%d>%d" src dst)
      in
      Hashtbl.add t.batchers key b;
      b
  in
  Locus_batch.Batcher.configure b ~site:src ~window_us:t.batch_window_us;
  b

let set_batch t ~window_us ~wrap ~unwrap ?(trace = fun ~site:_ ~size:_ k -> k ()) ()
    =
  t.batch_window_us <- window_us;
  t.batch_cfg <- Some { wrap; unwrap; trace }

let rpc ?(batched = false) t ~src ~dst req =
  match t.batch_cfg with
  | Some cfg when batched && src <> dst -> (
    let b = pair_batcher t ~src ~dst in
    if not (Locus_batch.Batcher.enabled b) then rpc_now t ~src ~dst req
    else begin
      let iv = Engine.Ivar.create () in
      Locus_batch.Batcher.submit b ~flush:(flush_batch t cfg ~src ~dst) (req, iv);
      Engine.await iv
    end)
  | _ -> rpc_now t ~src ~dst req

(* Bounded retry with capped exponential backoff. Transport errors always
   retry; [retry_if] lets callers also retry on application-level replies
   (e.g. a site that answered but is still recovering). On a clean network
   the schedule is the deterministic [min (cap, b·2^n)]; with faults
   configured each wait is drawn decorrelated-jitter style from
   [U(b, 3·prev)] so the retry storms a fault burst triggers do not
   re-synchronize into the same congested instant. Either way a wait is
   capped at 16x the first. *)
let rpc_retry ?batched ?(attempts = 5) ?(backoff_us = 100_000)
    ?(retry_if = fun _ -> false) t ~src ~dst req =
  let attempts = max 1 attempts in
  let cap = backoff_us * 16 in
  let rec go n backoff =
    let r = rpc ?batched t ~src ~dst req in
    let again = match r with Error _ -> true | Ok resp -> retry_if resp in
    if again && n < attempts then begin
      if chaotic t then stats_incr t "net.retries";
      Engine.sleep backoff;
      let next =
        if chaotic t then
          min cap
            (Prng.int_in (fault_prng t) ~lo:backoff_us
               ~hi:(max (backoff_us + 1) (backoff * 3)))
        else min cap (backoff * 2)
      in
      go (n + 1) next
    end
    else r
  in
  go 1 backoff_us

let send t ~src ~dst req =
  if src = dst then begin
    match (state t dst).handler with
    | None -> ()
    | Some h ->
      ignore
        (Engine.spawn ~name:(Printf.sprintf "netsrv@%d" dst) ~site:dst t.engine
           (fun () -> ignore (h ~src req)))
  end
  else begin
    stats_incr t "net.msg";
    deliver t ~src ~dst (fun () ->
        run_handler t ~src ~dst req ~on_reply:(fun _ -> ()))
  end
