module Obs = Locus_core.Obs
module Kernel = Locus_core.Kernel

type t = { mutable rev : Obs.record list; mutable n : int }

let create () = { rev = []; n = 0 }

let record t r =
  t.rev <- r :: t.rev;
  t.n <- t.n + 1

let sink t r = record t r

let attach t cl = Kernel.set_observer cl (Some (sink t))

let length t = t.n
let events t = List.rev t.rev

let clear t =
  t.rev <- [];
  t.n <- 0

let of_events evs =
  let t = create () in
  List.iter (record t) evs;
  t

let pp ppf t = List.iter (fun r -> Fmt.pf ppf "%a@." Obs.pp r) (events t)
