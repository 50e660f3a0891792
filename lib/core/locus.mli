(** Top-level convenience facade: build a cluster and run scenarios.

    Typical use:
    {[
      let sim =
        Locus.simulate ~n_sites:3 (fun cl ->
            let _pid =
              Locus.Api.spawn_process cl ~site:0 (fun env ->
                  let c = Locus.Api.creat env "/db/accounts" ~vid:1 in
                  Locus.Api.begin_trans env;
                  Locus.Api.write_string env c "hello";
                  ignore (Locus.Api.end_trans env);
                  Locus.Api.close env c)
            in
            ())
      in
      Fmt.pr "virtual time: %d us@." (Locus.Engine.now sim.engine)
    ]} *)

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

val make : ?seed:int -> ?config:Kernel.Config.t -> n_sites:int -> unit -> sim
(** Create an engine and a cluster (without running anything). *)

val simulate :
  ?seed:int ->
  ?config:Kernel.Config.t ->
  n_sites:int ->
  (Kernel.cluster -> unit) ->
  sim
(** [simulate ~n_sites f] builds a cluster, calls [f] to set up processes,
    runs the engine until quiescent, and returns the simulation for
    inspection. *)

val run : sim -> unit
(** Drain the engine (resume after injecting more work). *)
