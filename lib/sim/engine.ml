type time = int

exception Killed

type fiber = { fid : int; mutable fsite : int; fname : string; mutable alive : bool }

module Fiber = struct
  type handle = fiber

  let id f = f.fid
  let site f = f.fsite
  let name f = f.fname
  let alive f = f.alive
end

(* One queued event. The dispatch loop used to run closures exclusively
   ([ef : unit -> unit]); resuming a parked fiber then cost three
   allocations per wake-up (the closure capturing fiber/k/v, the event
   record around it, and the heap entry). The variant keeps the common
   cases flat: a plain scheduled call carries just the caller's closure,
   and a fiber resumption is a single block the dispatch loop interprets
   inline. Only cancellable timers still pay for a record (the flag). *)
type ev =
  | Call of (unit -> unit)
  | Cancellable of cancellable
  | Resume : fiber * ('a, unit) Effect.Deep.continuation * 'a -> ev

and cancellable = { mutable cancelled : bool; cf : unit -> unit }

type t = {
  mutable now : time;
  mutable seq : int;
  events : ev Pqueue.t;
  slot : ev Pqueue.slot;  (* reusable pop destination for the dispatch loop *)
  live : (int, fiber) Hashtbl.t;
  mutable next_fid : int;
  mutable fired : int;  (* events dispatched over the engine's lifetime *)
  mutable dead : int;  (* cancelled timers still queued *)
  stats : Stats.t;
  prng : Prng.t;
  mutable current : fiber option;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable cpu_instr : int ref option;  (* interned "cpu.instr" counter *)
  mutable cpu_site : int ref option array;  (* interned per-site counters *)
}

(* The [Mutant.Load] self-test of the bench's wall-clock claim
   (LOCUS_BREAK=load in the bench harness): burn O(pending-events) work
   per dispatched event, turning the O(log n) loop quadratic. Virtual-time
   results are untouched — only host throughput collapses, which is
   exactly what e21's events/s floor (bench/exp_load.ml) must catch. *)
let break_scan t =
  (* The constants keep the collapse visible even when the queue is
     short (compaction holds open-loop runs to tens of events, not
     thousands): the wall rate must fall ~25x or more, far enough below
     any sane events/s floor that the inverted self-test can never
     squeak through on a faster host. *)
  let n = 12288 + (1536 * Pqueue.length t.events) in
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + Sys.opaque_identity i
  done;
  ignore (Sys.opaque_identity !s)

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }
  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None
end

type _ Effect.t +=
  | Sleep_eff : time -> unit Effect.t
  | Await_eff : 'a Ivar.t -> 'a Effect.t
  | Await_timeout_eff : 'a Ivar.t * time -> 'a option Effect.t

let create ?(seed = 42) () =
  {
    now = 0;
    seq = 0;
    events = Pqueue.create ~dummy:(Call ignore);
    slot = Pqueue.make_slot (Call ignore);
    live = Hashtbl.create 64;
    next_fid = 0;
    fired = 0;
    dead = 0;
    stats = Stats.create ();
    prng = Prng.create ~seed;
    current = None;
    failure = None;
    cpu_instr = None;
    cpu_site = [||];
  }

let now t = t.now
let current_fiber t = t.current
let stats t = t.stats
let costs _ = Costs.default
let prng t = t.prng
let pending_events t = Pqueue.length t.events - t.dead
let events_fired t = t.fired

let push_ev ~delay t ev =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  t.seq <- t.seq + 1;
  Pqueue.push t.events ~time:(t.now + delay) ~seq:t.seq ev

let schedule ?(delay = 0) t f = push_ev ~delay t (Call f)

let live = function Cancellable c -> not c.cancelled | Call _ | Resume _ -> true

(* Like [schedule], returning a canceller: a cancelled event is skipped
   without advancing the clock, so abandoned timers (e.g. an await_timeout
   whose ivar filled first) do not stretch virtual time. A timer counts as
   [dead] from its cancel until the dispatch loop skips it or a compaction
   drops it; the one caller, [await_timeout], cancels at most once and
   only before the timer fires. Every answered RPC cancels its 30 s
   timeout, so once the dead are more than half the heap they are dropped
   in one O(n) pass, which keeps the heap, and each pop, short. *)
let schedule_cancellable ?(delay = 0) t f =
  let c = { cancelled = false; cf = f } in
  push_ev ~delay t (Cancellable c);
  fun () ->
    c.cancelled <- true;
    t.dead <- t.dead + 1;
    if t.dead > 32 && 2 * t.dead > Pqueue.length t.events then begin
      Pqueue.retain t.events live;
      t.dead <- 0
    end

let record_failure t e =
  if t.failure = None then t.failure <- Some (e, Printexc.get_raw_backtrace ())

let finish t fiber =
  fiber.alive <- false;
  Hashtbl.remove t.live fiber.fid

(* Resume a suspended fiber continuation after [delay]. The kill check
   and the current-fiber bookkeeping live in the dispatch loop (the
   [Resume] arm of [run]), not in a closure allocated here. *)
let resume :
    type a. ?delay:time -> t -> fiber -> (a, unit) Effect.Deep.continuation -> a -> unit =
 fun ?(delay = 0) t fiber k v -> push_ev ~delay t (Resume (fiber, k, v))

(* A fiber killed while parked is discontinued with [Killed]; if a
   [Fun.protect] finalizer on the unwinding stack then blocks again
   (e.g. a cleanup RPC), the dead fiber is discontinued a second time
   inside the finalizer and [Fun.protect] rewraps the exception as
   [Finally_raised Killed] (possibly nested). That is still a clean
   kill — the abandoned cleanup is exactly what a crash means — so
   unwrap before deciding whether to record a failure. *)
let rec is_kill = function
  | Killed -> true
  | Fun.Finally_raised e -> is_kill e
  | _ -> false

let handler t fiber =
  let open Effect.Deep in
  {
    retc = (fun () -> finish t fiber);
    exnc =
      (fun e ->
        if not (is_kill e) then record_failure t e;
        finish t fiber);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Sleep_eff d ->
          Some
            (fun (k : (b, unit) continuation) ->
              resume ~delay:(max 0 d) t fiber k ())
        | Await_eff iv ->
          Some
            (fun (k : (b, unit) continuation) ->
              match iv.Ivar.state with
              | Ivar.Full v -> continue k v
              | Ivar.Empty waiters ->
                let cb v = resume t fiber k v in
                iv.Ivar.state <- Ivar.Empty (cb :: waiters))
        | Await_timeout_eff (iv, timeout) ->
          Some
            (fun (k : (b, unit) continuation) ->
              match iv.Ivar.state with
              | Ivar.Full v -> continue k (Some v)
              | Ivar.Empty waiters ->
                let fired = ref false in
                let cancel_timer = ref (fun () -> ()) in
                let cb v =
                  if not !fired then begin
                    fired := true;
                    !cancel_timer ();
                    resume t fiber k (Some v)
                  end
                in
                iv.Ivar.state <- Ivar.Empty (cb :: waiters);
                cancel_timer :=
                  schedule_cancellable ~delay:(max 0 timeout) t (fun () ->
                      if not !fired then begin
                        fired := true;
                        resume t fiber k None
                      end))
        | _ -> None);
  }

let spawn ?(name = "fiber") ?(site = -1) t fn =
  t.next_fid <- t.next_fid + 1;
  let fiber = { fid = t.next_fid; fsite = site; fname = name; alive = true } in
  Hashtbl.add t.live fiber.fid fiber;
  schedule t (fun () ->
      if fiber.alive then begin
        let prev = t.current in
        t.current <- Some fiber;
        Effect.Deep.match_with fn () (handler t fiber);
        t.current <- prev
      end
      else finish t fiber);
  fiber

let kill t fiber =
  if fiber.alive then begin
    fiber.alive <- false;
    Hashtbl.remove t.live fiber.fid
  end

let set_site _t fiber site = fiber.fsite <- site

let kill_site t site =
  let doomed =
    Hashtbl.fold (fun _ f acc -> if f.fsite = site then f :: acc else acc) t.live []
  in
  List.iter (kill t) doomed

let fill _t iv v =
  match iv.Ivar.state with
  | Ivar.Full _ -> invalid_arg "Engine.fill: ivar already full"
  | Ivar.Empty waiters ->
    iv.Ivar.state <- Ivar.Full v;
    List.iter (fun cb -> cb v) (List.rev waiters)

let try_fill t iv v =
  match iv.Ivar.state with
  | Ivar.Full _ -> false
  | Ivar.Empty _ ->
    fill t iv v;
    true

let sleep d = Effect.perform (Sleep_eff d)
let yield () = sleep 0
let await iv = Effect.perform (Await_eff iv)
let await_timeout iv ~timeout = Effect.perform (Await_timeout_eff (iv, timeout))

(* The "cpu.instr" counters are interned once and bumped through their
   refs: [consume] sits on every syscall, and the old per-call
   [Printf.sprintf "cpu.instr.site%d"] + hash-table probe dominated the
   generator's host-CPU profile. Interning is lazy so a run that never
   charges CPU exports exactly the counters it always did. *)
let cpu_instr_ref t =
  match t.cpu_instr with
  | Some r -> r
  | None ->
    let r = Stats.counter t.stats "cpu.instr" in
    t.cpu_instr <- Some r;
    r

let site_instr_ref t s =
  if s >= Array.length t.cpu_site then begin
    let na = Array.make (max (s + 1) ((2 * Array.length t.cpu_site) + 8)) None in
    Array.blit t.cpu_site 0 na 0 (Array.length t.cpu_site);
    t.cpu_site <- na
  end;
  match t.cpu_site.(s) with
  | Some r -> r
  | None ->
    let r = Stats.counter t.stats (Printf.sprintf "cpu.instr.site%d" s) in
    t.cpu_site.(s) <- Some r;
    r

let consume t ~instr =
  let r = cpu_instr_ref t in
  r := !r + instr;
  (match t.current with
  | Some f when f.fsite >= 0 ->
    let rs = site_instr_ref t f.fsite in
    rs := !rs + instr
  | Some _ | None -> ());
  sleep (Costs.instr_us Costs.default instr)

(* The dispatch loop. Invariants the fast path must preserve:
   - events fire in strict (time, seq) order (determinism);
   - a cancelled timer is skipped without advancing the clock or
     counting as fired;
   - cancelled timers are at most half the heap, or 32 (the canceller
     compacts), and [t.dead] counts exactly those still queued;
   - [t.now] never moves backwards;
   - the loop allocates nothing per event: [pop_into] reuses [t.slot]
     and the [ev] variants are interpreted in place. *)
let run ?(max_events = 50_000_000) ?until t =
  let fired = ref 0 in
  let slot = t.slot in
  let rec loop () =
    match t.failure with
    | Some _ -> ()
    | None ->
      if not (Pqueue.is_empty t.events) then begin
        let time = Pqueue.min_time t.events in
        match until with
        | Some u when time > u -> t.now <- u
        | _ ->
          ignore (Pqueue.pop_into t.events slot : bool);
          (match slot.s_value with
          | Cancellable c when c.cancelled -> t.dead <- t.dead - 1
          | ev ->
            if slot.s_time > t.now then t.now <- slot.s_time;
            incr fired;
            t.fired <- t.fired + 1;
            if !fired > max_events then
              failwith "Engine.run: max_events exceeded (virtual livelock?)";
            if Locus_util.Mutant.(armed Load) then break_scan t;
            (match ev with
            | Call f -> f ()
            | Cancellable c -> c.cf ()
            | Resume (fiber, k, v) ->
              let prev = t.current in
              t.current <- Some fiber;
              (if fiber.alive then Effect.Deep.continue k v
               else Effect.Deep.discontinue k Killed);
              t.current <- prev));
          loop ()
      end
  in
  loop ();
  match t.failure with
  | Some (e, bt) ->
    t.failure <- None;
    Printexc.raise_with_backtrace e bt
  | None -> ()

let run_fn ?seed f =
  let t = create ?seed () in
  f t;
  run t;
  t
