(* In-memory span recorder for the traced run.

   Two clocks share one span list: [Virtual] spans are in simulated
   microseconds (a transaction's Api calls), [Host] spans in real
   microseconds (a schedule's gen / build / sim / check phases). Spans
   are kept in memory and written out once, when the run ends. *)

type clock = Virtual | Host

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  trace : int;  (** spans of one transaction or one schedule share it *)
  name : string;
  clock : clock;
  start_us : float;
  stop_us : float;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 1 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let add t ~id ?(parent = 0) ~trace ~clock name ~start_us ~stop_us =
  t.spans <- { id; parent; trace; name; clock; start_us; stop_us } :: t.spans

let now_us () = Unix.gettimeofday () *. 1e6

(* Time [f] on the host clock as a root span named [name]; without a
   recorder [f] just runs. *)
let host tr ~trace name f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = fresh t in
    let start_us = now_us () in
    let finish () = add t ~id ~trace ~clock:Host name ~start_us ~stop_us:(now_us ()) in
    Fun.protect ~finally:finish f

let spans t = List.rev t.spans
let dur s = s.stop_us -. s.start_us

(* Self time: a span's duration minus the time its direct children cover.
   Children of one parent never overlap here (each parent is one fiber or
   one sequential host phase), so the subtraction is exact. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (prev +. dur s))
    spans;
  fun s -> dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.

let named spans name = List.filter (fun s -> String.equal s.name name) spans

(* Sum of self times of every span called [name]. *)
let total_self spans name =
  let self = self_times spans in
  List.fold_left (fun acc s -> acc +. self s) 0. (named spans name)

let clock_name = function Virtual -> "virtual" | Host -> "host"

(* One JSON object per line: id, parent, trace, name, clock, start, duration
   and self time (microseconds on the span's clock). *)
let write_jsonl t path =
  let spans = spans t in
  let self = self_times spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%S,\"clock\":%S,\"start_us\":%.3f,\"dur_us\":%.3f,\"self_us\":%.3f}\n"
            s.id s.parent s.trace s.name (clock_name s.clock) s.start_us (dur s)
            (self s))
        spans)
