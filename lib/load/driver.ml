module L = Locus_core.Locus
module Api = Locus_core.Api
module K = Locus_core.Kernel
module Otrace = Locus_otrace.Otrace
module Transport = Locus_net.Transport

type config = {
  sites : int;
  replicas : int;
  duration_us : int;
  scenario : Scenario.t;
  seed : int;
}

let default_config =
  { sites = 3; replicas = 1; duration_us = 3_000_000; scenario = Scenario.default; seed = 0 }

type report = {
  offered : int;
  completed : int;
  aborted : int;
  shed : int;
  offered_per_sec : float;
  completed_per_sec : float;
  sojourn_p50_us : int;
  sojourn_p99_us : int;
  sojourn_p999_us : int;
  aborts : (string * int) list;
  events_fired : int;
  virtual_us : int;
}

let path_of i = Printf.sprintf "/load/records%d" i

let install_events cl events ~n_sites =
  let eng = K.engine cl in
  let clamp v = max 0 v in
  let at us down ~for_us =
    Engine.schedule ~delay:(clamp us) eng (fun () ->
        Bank.outage cl down ~for_us:(clamp for_us))
  in
  List.iter
    (fun ev ->
      match ev with
      | Scenario.Crash { at_us; restart_after_us; victim } when victim < n_sites ->
        at at_us (`Crash victim) ~for_us:restart_after_us
      | Scenario.Partition { at_us; heal_after_us; victim } when victim < n_sites ->
        at at_us (`Partition victim) ~for_us:heal_after_us
      | Scenario.Rolling { at_us; stagger_us; down_us } ->
        (* Never roll site 0: the scenario driver's records file and its
           name binding live there, and a generator that kills its own
           ground truth measures nothing. *)
        for i = 1 to n_sites - 1 do
          at (at_us + ((i - 1) * clamp stagger_us)) (`Crash i) ~for_us:down_us
        done
      | Scenario.Crash _ | Scenario.Partition _ -> ())
    events

let run cfg =
  let sites = max 1 cfg.sites in
  let sc = cfg.scenario in
  let config =
    if cfg.replicas > 1 then K.Config.with_replication ~n_sites:sites ~factor:cfg.replicas
    else K.Config.default ~n_sites:sites
  in
  let sim = L.make ~seed:cfg.seed ~config ~n_sites:sites () in
  let cl = sim.L.cluster in
  let eng = K.engine cl in
  let net = K.transport cl in
  let otr = Otrace.create eng in
  K.set_otracer cl (Some otr);
  (* One generator PRNG, derived from the run seed but independent of the
     engine's own stream, feeds arrivals, mixes, popularity and routing. *)
  let gen_prng = Prng.create ~seed:(cfg.seed lxor 0x10ad) in
  let arr = Arrival.create ~prng:gen_prng sc.Scenario.arrival in
  let per_stripe = (sc.Scenario.keys + sites - 1) / sites in
  let zipf = Zipf.create ~s:sc.Scenario.zipf_s ~n:per_stripe () in
  let offered = ref 0 in
  let completed = ref 0 in
  let aborted = ref 0 in
  let shed = ref 0 in
  let last_done = ref 0 in
  let launch () =
    incr offered;
    (* Route to a live site: start from a popularity-independent uniform
       pick, scan forward deterministically past down sites. The PRNG
       draws below happen unconditionally (even for shed arrivals) so the
       stream stays aligned regardless of fault timing. *)
    let home = Prng.int gen_prng sites in
    (* Records are striped one file per site (file [i] lives on volume
       [i], hosted at site [i]); each file holds its own Zipfian key
       universe. A transaction works its home site's stripe except for a
       [remote_frac] cross-stripe minority, so the hottest keys contend in
       parallel at every site (instead of serializing on one storage
       site's disk) while the remote tail keeps genuine multi-site 2PC in
       the mix — and a scripted crash of any site takes out real traffic.
       Each op is [(stripe, op)] with its rank local to that stripe. *)
    let ops =
      List.map
        (fun op ->
          let stripe =
            if sites > 1 && Prng.float gen_prng 1.0 < sc.Scenario.remote_frac then
              (home + 1 + Prng.int gen_prng (sites - 1)) mod sites
            else home
          in
          (stripe, op))
        (Opmix.gen_txn sc.Scenario.mix gen_prng zipf)
    in
    let stripes = List.sort_uniq Int.compare (List.map fst ops) in
    let files = List.map (fun s -> (s, path_of s)) stripes in
    let rec pick i =
      if i = sites then None
      else
        let s = (home + i) mod sites in
        if Transport.site_up net s then Some s else pick (i + 1)
    in
    match pick 0 with
    | None -> incr shed
    | Some site ->
      let n = !offered in
      ignore
        (Api.spawn_process cl ~site
           ~name:(Printf.sprintf "ld-txn-%d" n)
           (fun env ->
             Otrace.with_span otr ~site ~cat:"load" "load.txn" (fun () ->
                 (match Bank.txn env ~files ops with
                 | K.Committed -> incr completed
                 | K.Aborted -> incr aborted
                 | exception (Api.Error _ | Api.Process_failure _) -> incr aborted
                 | exception Engine.Killed ->
                   (* The transaction's abort killed the process. *)
                   incr aborted;
                   last_done := Engine.now eng;
                   raise Engine.Killed);
                 last_done := Engine.now eng)))
  in
  (* Open loop: the next arrival is armed from the arrival process alone —
     never from a completion — so offered load is independent of how the
     cluster is coping. [t0] is the arrival epoch: creating the records
     file costs real (virtual) disk time, so the window only opens once
     the data exists, and scenario times are relative to that epoch. *)
  let t0 = ref 0 in
  let rec arm from_us =
    let next = Arrival.next_after arr from_us in
    if next <= cfg.duration_us then
      Engine.schedule ~delay:(!t0 + next - Engine.now eng) eng (fun () ->
          launch ();
          arm next)
  in
  ignore
    (Api.spawn_process cl ~site:0 ~name:"ld-init" (fun env ->
         for i = 0 to sites - 1 do
           Bank.create env (path_of i) ~vid:i ~records:per_stripe
         done;
         t0 := Engine.now eng;
         (* Scenario event times share the arrival epoch, so "partition at
            1.6s" lands inside "flash crowd at 1.5s" as scripted. *)
         install_events cl sc.Scenario.events ~n_sites:sites;
         arm 0));
  L.run sim;
  let stats = Engine.stats eng in
  let dur_s = float_of_int (max 1 cfg.duration_us) /. 1e6 in
  (* Sustained service rate: completions over the window from the arrival
     epoch to the later of window close and the last transaction leaving
     the system. Below saturation this tracks the offered rate; past the
     knee the drain extends the window and the rate converges on capacity
     instead of inflating. Recovery timers idling after the last
     completion (crash/partition scenarios) don't dilute it. *)
  let active_s =
    float_of_int (max 1 (max cfg.duration_us (!last_done - !t0))) /. 1e6
  in
  let soj = Otrace.phase otr "load.txn" in
  let q p = match soj with Some h -> Stats.Hist.quantile h p | None -> 0 in
  let qpm pm = match soj with Some h -> Stats.Hist.quantile_permille h pm | None -> 0 in
  let aborts =
    List.filter_map
      (fun label ->
        let v = Stats.get stats ("txn.abort." ^ label) in
        if v > 0 then Some (label, v) else None)
      [ "coordinator_lost"; "crash"; "deadlock"; "degraded_vote"; "orphan"; "user" ]
  in
  ( {
      offered = !offered;
      completed = !completed;
      aborted = !aborted;
      shed = !shed;
      offered_per_sec = float_of_int !offered /. dur_s;
      completed_per_sec = float_of_int !completed /. active_s;
      sojourn_p50_us = q 50;
      sojourn_p99_us = q 99;
      sojourn_p999_us = qpm 999;
      aborts;
      events_fired = Engine.events_fired eng;
      virtual_us = Engine.now eng;
    },
    sim )

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>offered %d (%.1f/s), completed %d (%.1f/s), aborted %d, shed %d@,\
     sojourn p50 %dus p99 %dus p999 %dus@,\
     aborts: %a@,\
     %d engine events, %dus virtual@]"
    r.offered r.offered_per_sec r.completed r.completed_per_sec r.aborted r.shed
    r.sojourn_p50_us r.sojourn_p99_us r.sojourn_p999_us
    Fmt.(list ~sep:sp (pair ~sep:(any "=") string int))
    r.aborts r.events_fired r.virtual_us
