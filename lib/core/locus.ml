module Engine = Locus_sim.Engine
module Costs = Locus_sim.Costs
module Stats = Locus_sim.Stats
module Api = Api
module Kernel = Kernel
module Msg = Msg
module Obs = Obs
module Otrace = Locus_otrace.Otrace
module Mode = Locus_lock.Mode

type sim = { engine : Engine.t; cluster : Kernel.cluster }

let make ?seed ?config ~n_sites () =
  let engine = Engine.create ?seed () in
  let config =
    match config with Some c -> c | None -> Kernel.Config.default ~n_sites
  in
  { engine; cluster = Kernel.make engine config }

let run sim = Engine.run sim.engine

let simulate ?seed ?config ~n_sites f =
  let sim = make ?seed ?config ~n_sites () in
  f sim.cluster;
  run sim;
  sim
