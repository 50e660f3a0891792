(* Engine, Prng, Pqueue, Stats, Costs. *)

module E = Engine

let test_prng_determinism () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_bounds () =
  let p = Prng.create ~seed:99 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in p ~lo:5 ~hi:9 in
    if v < 5 || v > 9 then Alcotest.failf "int_in out of range: %d" v
  done

let test_prng_split () =
  let p = Prng.create ~seed:1 in
  let q = Prng.split p in
  Alcotest.(check bool) "independent" true (Prng.bits64 p <> Prng.bits64 q)

let test_pqueue_order () =
  let q = Pqueue.create ~dummy:"" in
  Pqueue.push q ~time:5 ~seq:1 "e";
  Pqueue.push q ~time:1 ~seq:2 "a";
  Pqueue.push q ~time:1 ~seq:3 "b";
  Pqueue.push q ~time:3 ~seq:4 "c";
  let order = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, _, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time then seq" [ "a"; "b"; "c"; "e" ]
    (List.rev !order)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:300
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun items ->
      let q = Pqueue.create ~dummy:() in
      List.iteri (fun i (t, _) -> Pqueue.push q ~time:t ~seq:i ()) items;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (t, _, ()) -> t >= last && drain t
      in
      drain min_int)

let prop_pqueue_retain =
  QCheck.Test.make ~name:"retain then drain pops the kept entries sorted" ~count:300
    QCheck.(pair (list (int_bound 200)) (int_range 1 7))
    (fun (times, k) ->
      let q = Pqueue.create ~dummy:0 in
      List.iteri (fun i time -> Pqueue.push q ~time ~seq:i i) times;
      let keep i = i mod k <> 0 in
      Pqueue.retain q keep;
      let expected =
        List.filteri (fun i _ -> keep i) (List.mapi (fun i time -> (time, i)) times)
        |> List.sort compare
      in
      let rec drain acc =
        match Pqueue.pop q with
        | None -> Some (List.rev acc)
        | Some (time, seq, v) -> if v = seq then drain ((time, seq) :: acc) else None
      in
      Pqueue.length q = List.length expected && drain [] = Some expected)

(* A value the heap has given up — popped, popped into a slot, or dropped
   by [retain] — must not stay reachable from the heap's arrays. *)
let test_pqueue_forgets_values () =
  let q = Pqueue.create ~dummy:Bytes.empty in
  let w = Weak.create 64 in
  let push_all () =
    for i = 0 to 63 do
      let v = Bytes.make 16 (Char.chr i) in
      Weak.set w i (Some v);
      Pqueue.push q ~time:i ~seq:i v
    done
  in
  push_all ();
  Pqueue.retain q (fun v -> Char.code (Bytes.get v 0) mod 2 = 0);
  ignore (Pqueue.pop q);
  ignore (Pqueue.pop q);
  let slot = Pqueue.make_slot Bytes.empty in
  ignore (Pqueue.pop_into q slot);
  ignore (Pqueue.pop_into q slot);
  slot.Pqueue.s_value <- Bytes.empty;
  Gc.full_major ();
  for i = 0 to 63 do
    let held = i mod 2 = 0 && i >= 8 in
    Alcotest.(check bool) (Printf.sprintf "value %d reachable" i) held (Weak.check w i)
  done;
  Alcotest.(check int) "kept" 28 (Pqueue.length q)

(* 10k interleaved random pushes and pops drain in strict (time, seq)
   order — the tie-break on seq matters, not just the time key. *)
let test_pqueue_interleaved_10k () =
  let prng = Prng.create ~seed:99 in
  let q = Pqueue.create ~dummy:() in
  let popped = ref [] in
  let seq = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.int prng 3 = 0 then (
      match Pqueue.pop q with
      | Some (t, s, ()) -> popped := (t, s) :: !popped
      | None -> ())
    else (
      Pqueue.push q ~time:(Prng.int prng 500) ~seq:!seq ();
      incr seq)
  done;
  let rec drain () =
    match Pqueue.pop q with
    | Some (t, s, ()) ->
      popped := (t, s) :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "nothing lost" !seq (List.length !popped);
  (* Each pop batch (between pushes) is locally sorted; the global drain
     at the end must be fully sorted. Check the tail that the final drain
     produced: it is the longest strictly-(time,seq)-sorted prefix of the
     reversed pop log and must cover everything still queued. *)
  let sorted_pairs l =
    let rec go = function
      | (t1, s1) :: ((t2, s2) :: _ as rest) ->
        (t1 < t2 || (t1 = t2 && s1 < s2)) && go rest
      | _ -> true
    in
    go l
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (_, s) ->
      Alcotest.(check bool) "no duplicate seq" false (Hashtbl.mem seen s);
      Hashtbl.add seen s ())
    !popped;
  (* The final drain alone is a fully sorted run. *)
  let final_run =
    let rec take acc = function
      | x :: rest when acc = [] || sorted_pairs [ x; List.hd acc ] ->
        take (x :: acc) rest
      | _ -> acc
    in
    take [] !popped
  in
  Alcotest.(check bool) "final drain sorted" true (sorted_pairs final_run)

(* Regression: push into a queue that has grown, fully drained, then
   receives a fresh element. The growth path once used the pushed value
   as the array filler; a stale-slot read here produced garbage. *)
let test_pqueue_push_after_drain () =
  let q = Pqueue.create ~dummy:"" in
  for i = 0 to 63 do
    Pqueue.push q ~time:i ~seq:i (string_of_int i)
  done;
  while Pqueue.pop q <> None do
    ()
  done;
  Alcotest.(check bool) "empty after drain" true (Pqueue.is_empty q);
  Pqueue.push q ~time:7 ~seq:0 "fresh";
  Alcotest.(check int) "length 1" 1 (Pqueue.length q);
  (match Pqueue.pop q with
  | Some (7, 0, "fresh") -> ()
  | Some (t, s, v) -> Alcotest.failf "got (%d,%d,%s)" t s v
  | None -> Alcotest.fail "queue empty");
  (* And immediately grow again from the drained state. *)
  for i = 0 to 127 do
    Pqueue.push q ~time:(127 - i) ~seq:i "r"
  done;
  let rec count last n =
    match Pqueue.pop q with
    | Some (t, _, _) ->
      Alcotest.(check bool) "regrow ordered" true (t >= last);
      count t (n + 1)
    | None -> n
  in
  Alcotest.(check int) "regrow drains all" 128 (count min_int 0)

(* pop_into reuses one slot and agrees with min_time/peek. *)
let test_pqueue_pop_into () =
  let q = Pqueue.create ~dummy:"" in
  let slot = Pqueue.make_slot "-" in
  Pqueue.push q ~time:30 ~seq:2 "late";
  Pqueue.push q ~time:10 ~seq:1 "early";
  Alcotest.(check int) "min_time" 10 (Pqueue.min_time q);
  Alcotest.(check bool) "pop_into hit" true (Pqueue.pop_into q slot);
  Alcotest.(check string) "value" "early" slot.Pqueue.s_value;
  Alcotest.(check int) "time" 10 slot.Pqueue.s_time;
  Alcotest.(check int) "seq" 1 slot.Pqueue.s_seq;
  Alcotest.(check bool) "second hit" true (Pqueue.pop_into q slot);
  Alcotest.(check string) "second value" "late" slot.Pqueue.s_value;
  Alcotest.(check bool) "miss on empty" false (Pqueue.pop_into q slot);
  Alcotest.(check string) "slot untouched on miss" "late" slot.Pqueue.s_value

(* Model test: random interleavings of [push], [pop_into], [min_time] and
   [retain] against a sorted list. Times come from 0..3, so most keys tie
   on time and order by seq, and odd pushes take negative seqs, so that
   order is not push order. Half the cases stay short (sizes 0-6, around
   the fan-out of 4), half grow past the initial capacity of 16; [Retain
   1] drops everything. After the ops, every value the heap gave up must
   be unreachable (vacated slots hold the dummy) and the rest drain in
   the model's order. *)
type pq_op = Push of int | Pop | Min | Retain of int

let show_pq_op = function
  | Push t -> Printf.sprintf "Push %d" t
  | Pop -> "Pop"
  | Min -> "Min"
  | Retain k -> Printf.sprintf "Retain %d" k

let prop_pqueue_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun t -> Push t) (int_bound 3));
          (3, return Pop);
          (1, return Min);
          (1, map (fun k -> Retain k) (int_range 1 4));
        ])
  in
  let ops = QCheck.Gen.(oneof [ list_size (int_bound 10) op; list_size (int_range 20 80) op ]) in
  QCheck.Test.make ~name:"pqueue agrees with a sorted-list model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_pq_op) ~shrink:QCheck.Shrink.list ops)
    (fun ops ->
      let q = Pqueue.create ~dummy:(ref (-1)) in
      let slot = Pqueue.make_slot (ref (-1)) in
      let w = Weak.create (List.length ops + 1) in
      let model = ref [] and pushed = ref 0 and ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Push time ->
            let i = !pushed in
            incr pushed;
            let seq = if i mod 2 = 0 then i else -i in
            let v = ref i in
            Weak.set w i (Some v);
            Pqueue.push q ~time ~seq v;
            model := List.merge compare [ (time, seq, i) ] !model
          | Pop -> (
            match !model with
            | [] -> check (not (Pqueue.pop_into q slot))
            | (time, seq, i) :: rest ->
              model := rest;
              check
                (Pqueue.pop_into q slot
                && slot.Pqueue.s_time = time
                && slot.Pqueue.s_seq = seq
                && !(slot.Pqueue.s_value) = i))
          | Min ->
            let expected = match !model with [] -> max_int | (t, _, _) :: _ -> t in
            check (Pqueue.min_time q = expected)
          | Retain k ->
            Pqueue.retain q (fun v -> !v mod k <> 0);
            model := List.filter (fun (_, _, i) -> i mod k <> 0) !model);
          check (Pqueue.length q = List.length !model))
        ops;
      slot.Pqueue.s_value <- ref (-1);
      Gc.full_major ();
      for i = 0 to !pushed - 1 do
        check (Weak.check w i = List.exists (fun (_, _, j) -> j = i) !model)
      done;
      List.iter
        (fun (time, seq, i) ->
          match Pqueue.pop q with
          | Some (t, s, v) -> check (t = time && s = seq && !v = i)
          | None -> check false)
        !model;
      !ok && Pqueue.is_empty q)

(* [retain] down to 0 and 1 entries, from every size 0-6, and on a heap
   that never grew (its arrays have no slot 0). *)
let test_pqueue_retain_small () =
  let q = Pqueue.create ~dummy:(-1) in
  Pqueue.retain q (fun _ -> true);
  Alcotest.(check int) "never grown" 0 (Pqueue.length q);
  for size = 0 to 6 do
    for kept = 0 to min 1 size do
      let q = Pqueue.create ~dummy:(-1) in
      for i = 0 to size - 1 do
        Pqueue.push q ~time:(size - i) ~seq:i i
      done;
      Pqueue.retain q (fun v -> kept = 1 && v = size / 2);
      let what = Printf.sprintf "size %d kept %d" size kept in
      Alcotest.(check int) what kept (Pqueue.length q);
      Alcotest.(check (option (triple int int int)))
        what
        (if kept = 1 then Some (size - (size / 2), size / 2, size / 2) else None)
        (Pqueue.pop q);
      Alcotest.(check int) (what ^ ", min_time") max_int (Pqueue.min_time q)
    done
  done

let test_sleep_ordering () =
  let order = ref [] in
  let e =
    E.run_fn (fun t ->
        ignore
          (E.spawn t (fun () ->
               E.sleep 10;
               order := "b" :: !order));
        ignore
          (E.spawn t (fun () ->
               E.sleep 5;
               order := "a" :: !order)))
  in
  Alcotest.(check (list string)) "virtual order" [ "a"; "b" ] (List.rev !order);
  Alcotest.(check int) "clock" 10 (E.now e)

let test_ivar () =
  let got = ref 0 in
  ignore
    (E.run_fn (fun t ->
         let iv = E.Ivar.create () in
         ignore
           (E.spawn t (fun () ->
                let v = E.await iv in
                got := v));
         ignore
           (E.spawn t (fun () ->
                E.sleep 100;
                E.fill t iv 42))));
  Alcotest.(check int) "ivar value" 42 !got

let test_ivar_immediate () =
  let got = ref 0 in
  ignore
    (E.run_fn (fun t ->
         let iv = E.Ivar.create () in
         E.fill t iv 7;
         ignore (E.spawn t (fun () -> got := E.await iv))));
  Alcotest.(check int) "full ivar returns immediately" 7 !got

let test_await_timeout () =
  let r1 = ref None and r2 = ref None and tend = ref 0 in
  let e =
    E.run_fn (fun t ->
        let never = E.Ivar.create () in
        let soon = E.Ivar.create () in
        ignore (E.spawn t (fun () -> r1 := E.await_timeout never ~timeout:50));
        ignore (E.spawn t (fun () -> r2 := E.await_timeout soon ~timeout:5000));
        ignore
          (E.spawn t (fun () ->
               E.sleep 20;
               E.fill t soon "yes")))
  in
  tend := E.now e;
  Alcotest.(check (option unit)) "timed out" None !r1;
  Alcotest.(check (option string)) "delivered" (Some "yes") !r2;
  (* The satisfied await's 5000us timer must not stretch virtual time. *)
  Alcotest.(check int) "clock stops at 50" 50 !tend

(* A cancelled timer stays queued until the dispatch loop skips it, but it
   is no longer work: [pending_events] must not count it, or a loop that
   polls "is anything left?" (the health sampler) outlives the run. *)
let test_cancelled_timer_not_pending () =
  let t = E.create () in
  let iv = E.Ivar.create () in
  ignore (E.spawn t (fun () -> ignore (E.await_timeout iv ~timeout:5000)));
  ignore
    (E.spawn t (fun () ->
         E.sleep 20;
         E.fill t iv ()));
  E.run ~until:100 t;
  Alcotest.(check int) "timer cancelled but queued: nothing pending" 0
    (E.pending_events t);
  E.run t;
  Alcotest.(check int) "skipping it does not go negative" 0 (E.pending_events t);
  Alcotest.(check int) "clock stays at the pause" 100 (E.now t)

(* Hundreds of answered [await_timeout]s leave their cancelled timers
   behind between live events, enough to compact the heap several times.
   Fiber [i] sleeps to [s_i], waits on an ivar that a call scheduled up
   front fills at [f_i > s_i], and so has exactly two live events queued
   (its wake-up or its timer, and the fill) until [f_i]. Markers are the
   other live events. After every instant the live count must be exact,
   and the markers and fills must have fired in (time, seq) order. *)
let test_cancelled_timers_compacted () =
  let prng = Prng.create ~seed:5 in
  let t = E.create () in
  let n = 500 and horizon = 1_000 in
  let fired = ref [] and scheduled = ref 0 in
  let at time =
    let id = !scheduled in
    incr scheduled;
    E.schedule ~delay:time t (fun () -> fired := (E.now t, id) :: !fired)
  in
  let fills =
    List.init n (fun _ ->
        let f = 1 + Prng.int prng horizon in
        let s = Prng.int prng f in
        let iv = E.Ivar.create () in
        let id = !scheduled in
        incr scheduled;
        E.schedule ~delay:f t (fun () ->
            fired := (E.now t, id) :: !fired;
            E.fill t iv id);
        ignore
          (E.spawn t (fun () ->
               E.sleep s;
               match E.await_timeout iv ~timeout:10_000_000 with
               | Some v when v = id -> ()
               | _ -> Alcotest.fail "answered wait lost its value"));
        f)
  in
  let markers = List.init 50 (fun _ -> 1 + Prng.int prng horizon) in
  List.iter at markers;
  for u = 0 to horizon + 1 do
    E.run ~until:u t;
    let later l = List.length (List.filter (fun x -> x > u) l) in
    Alcotest.(check int)
      (Printf.sprintf "live events after %d" u)
      ((2 * later fills) + later markers)
      (E.pending_events t)
  done;
  E.run t;
  Alcotest.(check int) "nothing live at the end" 0 (E.pending_events t);
  Alcotest.(check int) "cancelled timers never move the clock" (horizon + 1) (E.now t);
  let order = List.rev !fired in
  Alcotest.(check int) "every fill and marker fired" (n + 50) (List.length order);
  Alcotest.(check bool) "fired in (time, seq) order" true (List.sort compare order = order)

let test_kill () =
  let reached = ref false in
  ignore
    (E.run_fn (fun t ->
         let f =
           E.spawn ~site:3 t (fun () ->
               E.sleep 100;
               reached := true)
         in
         ignore f;
         ignore (E.spawn t (fun () -> E.kill_site t 3))));
  Alcotest.(check bool) "killed before resume" false !reached

let test_kill_unwinds () =
  let cleaned = ref false in
  ignore
    (E.run_fn (fun t ->
         let f =
           E.spawn ~site:1 t (fun () ->
               Fun.protect
                 (fun () -> E.sleep 1000)
                 ~finally:(fun () -> cleaned := true))
         in
         ignore f;
         ignore
           (E.spawn t (fun () ->
                E.sleep 10;
                E.kill_site t 1))));
  Alcotest.(check bool) "finally ran on kill" true !cleaned

let test_exception_propagates () =
  Alcotest.check_raises "fiber exception reaches run" (Failure "boom") (fun () ->
      ignore (E.run_fn (fun t -> ignore (E.spawn t (fun () -> failwith "boom")))))

let test_consume_charges () =
  let e =
    E.run_fn (fun t -> ignore (E.spawn t (fun () -> E.consume t ~instr:750)))
  in
  (* 750 instructions at 2 us each = 1.5 ms — the paper's lock cost. *)
  Alcotest.(check int) "1.5ms" 1500 (E.now e);
  Alcotest.(check int) "counter" 750 (Stats.get (E.stats e) "cpu.instr")

let test_run_until () =
  let t = E.create () in
  ignore (E.spawn t (fun () -> E.sleep 1000));
  E.run ~until:300 t;
  Alcotest.(check int) "paused at until" 300 (E.now t);
  E.run t;
  Alcotest.(check int) "completes" 1000 (E.now t)

let test_costs () =
  let c = Costs.default in
  Alcotest.(check int) "750 instr = 1.5ms" 1500 (Costs.instr_us c 750);
  Alcotest.(check bool) "disk io >= latency" true
    (Costs.disk_io_us c ~bytes:1024 >= c.Costs.disk_latency_us);
  Alcotest.(check bool) "copy scales" true
    (Costs.copy_instr c ~bytes:4096 > Costs.copy_instr c ~bytes:1024)

let suite =
  [
    ( "sim.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "bounds" `Quick test_prng_bounds;
        Alcotest.test_case "split" `Quick test_prng_split;
      ] );
    ( "sim.pqueue",
      [
        Alcotest.test_case "order" `Quick test_pqueue_order;
        QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        QCheck_alcotest.to_alcotest prop_pqueue_retain;
        Alcotest.test_case "forgets given-up values" `Quick test_pqueue_forgets_values;
        Alcotest.test_case "interleaved 10k" `Quick test_pqueue_interleaved_10k;
        Alcotest.test_case "push after drain to empty" `Quick
          test_pqueue_push_after_drain;
        Alcotest.test_case "pop_into + min_time" `Quick test_pqueue_pop_into;
        QCheck_alcotest.to_alcotest prop_pqueue_model;
        Alcotest.test_case "retain down to 0 and 1" `Quick test_pqueue_retain_small;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
        Alcotest.test_case "ivar" `Quick test_ivar;
        Alcotest.test_case "ivar immediate" `Quick test_ivar_immediate;
        Alcotest.test_case "await timeout" `Quick test_await_timeout;
        Alcotest.test_case "cancelled timer not pending" `Quick
          test_cancelled_timer_not_pending;
        Alcotest.test_case "cancelled timers compacted" `Quick
          test_cancelled_timers_compacted;
        Alcotest.test_case "kill" `Quick test_kill;
        Alcotest.test_case "kill unwinds" `Quick test_kill_unwinds;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "consume" `Quick test_consume_charges;
        Alcotest.test_case "run until" `Quick test_run_until;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "costs" `Quick test_costs;
      ] );
  ]

(* The kernel's typed event stream, the one `locusctl --trace` prints. *)

let test_trace_from_kernel () =
  let module L = Locus_core.Locus in
  let module Api = L.Api in
  let module Obs = Locus_core.Obs in
  let sim = L.make ~n_sites:2 () in
  let events = ref [] in
  L.Kernel.set_observer sim.L.cluster (Some (fun r -> events := r.Obs.ev :: !events));
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 (fun env ->
         let c = Api.creat env "/t" ~vid:1 in
         Api.begin_trans env;
         Api.write_string env c "x";
         ignore (Api.end_trans env)));
  L.run sim;
  let txid =
    match List.find_map (function Obs.Begin { txid; _ } -> Some txid | _ -> None) !events with
    | Some t -> t
    | None -> Alcotest.fail "no begin recorded"
  in
  let has p = List.exists p !events in
  Alcotest.(check bool) "lock recorded for the txid" true
    (has (function
      | Obs.Lock { owner = Owner.Transaction t; _ } -> Txid.equal t txid
      | _ -> false));
  Alcotest.(check bool) "commit recorded for the txid" true
    (has (function Obs.Commit { txid = t } -> Txid.equal t txid | _ -> false))

(* Appended: bounded histograms. *)

(* The histogram-side per-mille quantile and the snapshot/diff algebra the
   health sampler's interval merges are built on. *)

let test_hist_permille_and_snapshots () =
  let h = Stats.Hist.create () in
  for v = 1 to 1000 do
    Stats.Hist.add h v
  done;
  Alcotest.(check bool) "p999 >= p99 (log2 bucket resolution)" true
    (Stats.Hist.quantile_permille h 999 >= Stats.Hist.quantile_permille h 990);
  Alcotest.(check int) "p1000 clamps to the observed max" 1000
    (Stats.Hist.quantile_permille h 1000);
  (* Interval merge: a snapshot diff sees only the recordings between the
     two snapshots, never the lifetime population. *)
  let before = Stats.Hist.snapshot h in
  Stats.Hist.add h 5;
  Stats.Hist.add h 6;
  Stats.Hist.add h 7;
  let window = Stats.Hist.diff (Stats.Hist.snapshot h) before in
  Alcotest.(check int) "window count" 3 (Stats.Hist.snap_count window);
  Alcotest.(check int) "window total" 18 (Stats.Hist.snap_total window);
  Alcotest.(check (float 0.001)) "window mean" 6.0 (Stats.Hist.snap_mean window);
  Alcotest.(check bool) "window p99 reflects the interval, not the 1000s"
    true
    (Stats.Hist.snap_quantile window 99 <= 7);
  (* An empty interval is all zeroes. *)
  let empty = Stats.Hist.diff (Stats.Hist.snapshot h) (Stats.Hist.snapshot h) in
  Alcotest.(check int) "empty interval count" 0 (Stats.Hist.snap_count empty);
  Alcotest.(check int) "empty interval p99" 0 (Stats.Hist.snap_quantile empty 99)

let test_hist_buckets () =
  let h = Stats.Hist.create () in
  List.iter (Stats.Hist.add h) [ 0; 1; 2; 3; 4; 8 ];
  Alcotest.(check int) "count" 6 (Stats.Hist.count h);
  Alcotest.(check int) "total" 18 (Stats.Hist.total h);
  Alcotest.(check int) "min" 0 (Stats.Hist.min_value h);
  Alcotest.(check int) "max" 8 (Stats.Hist.max_value h);
  Alcotest.(check (list (triple int int int)))
    "log2 bucket boundaries"
    [ (0, 1, 1); (1, 2, 1); (2, 4, 2); (4, 8, 1); (8, 16, 1) ]
    (Stats.Hist.buckets h);
  (* rank 3 of 6 lands in the [2,4) bucket; upper inclusive edge is 3 *)
  Alcotest.(check int) "p50" 3 (Stats.Hist.quantile h 50);
  (* top quantile clamps to the observed maximum, not the bucket edge 15 *)
  Alcotest.(check int) "p100 clamps to max" 8 (Stats.Hist.quantile h 100)

let test_hist_named () =
  let s = Stats.create () in
  Alcotest.(check bool) "absent" true (Stats.histogram s "lat" = None);
  Stats.hist s "lat" 7;
  Stats.hist s "lat" 9;
  match Stats.histogram s "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 2 (Stats.Hist.count h);
    Alcotest.(check int) "one name" 1 (List.length (Stats.histograms s))

let suite =
  suite
  @ [
      ( "sim.trace",
        [
          Alcotest.test_case "kernel integration" `Quick test_trace_from_kernel;
        ] );
      ( "sim.stats.quantiles",
        [
          Alcotest.test_case "hist buckets" `Quick test_hist_buckets;
          Alcotest.test_case "hist permille + snapshots" `Quick
            test_hist_permille_and_snapshots;
          Alcotest.test_case "named hists" `Quick test_hist_named;
        ] );
    ]
