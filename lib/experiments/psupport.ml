module Network = Nf_sim.Network
module Topology = Nf_topo.Topology
module Routing = Nf_topo.Routing
module Problem = Nf_num.Problem
module Semidynamic = Nf_workload.Semidynamic

type setup = {
  seed : int;
  n_paths : int;
  flows_per_event : int;
  active_min : int;
  active_max : int;
  n_events : int;
  event_spacing : float;
  sample_every : float;
  sustain : float;
  within : float;
  fraction : float;
}

let default_setup ?(seed = 11) ?(n_events = 6) () =
  {
    seed;
    n_paths = 40;
    flows_per_event = 6;
    active_min = 12;
    active_max = 20;
    n_events;
    event_spacing = 4e-3;
    sample_every = 20e-6;
    sustain = 0.5e-3;
    within = 0.1;
    fraction = 0.95;
  }

type result = { times : float array; unconverged : int; drops : int }

(* Static schedule of flow activations: every activation of a path gets a
   fresh flow id with a start time; deactivations stop that id. *)
type activation = {
  flow_id : int;
  path_idx : int;
  start_at : float;
  mutable stop_at : float option;
}

let build_activations setup scenario =
  let next_id = ref 0 in
  let current : (int, activation) Hashtbl.t = Hashtbl.create 64 in
  (* path idx -> live activation *)
  let all = ref [] in
  let activate path_idx at =
    let a = { flow_id = !next_id; path_idx; start_at = at; stop_at = None } in
    incr next_id;
    Hashtbl.replace current path_idx a;
    all := a :: !all
  in
  List.iter (fun i -> activate i 0.) scenario.Semidynamic.initial;
  List.iteri
    (fun k ev ->
      let at = float_of_int (k + 1) *. setup.event_spacing in
      List.iter (fun i -> activate i at) ev.Semidynamic.started;
      List.iter
        (fun i ->
          match Hashtbl.find_opt current i with
          | Some a ->
            a.stop_at <- Some at;
            Hashtbl.remove current i
          | None -> ())
        ev.Semidynamic.stopped)
    scenario.Semidynamic.events;
  List.rev !all

let active_at activations t =
  List.filter
    (fun a ->
      a.start_at <= t +. 1e-12
      && match a.stop_at with None -> true | Some s -> s > t +. 1e-12)
    activations

let semidyn ?(config = Nf_sim.Config.default)
    ?(protocol = Nf_sim.Protocols.get "numfabric") ~setup ~topology ~hosts
    ~utility_of () =
  let rng = Nf_util.Rng.create ~seed:setup.seed in
  let scenario =
    Semidynamic.generate rng ~hosts ~n_paths:setup.n_paths
      ~flows_per_event:setup.flows_per_event ~active_min:setup.active_min
      ~active_max:setup.active_max ~n_events:setup.n_events ()
  in
  let paths =
    Array.mapi
      (fun i { Nf_workload.Traffic.src; dst } ->
        Array.of_list (Routing.ecmp_path topology ~src ~dst ~hash:(i * 2654435761)))
      scenario.Semidynamic.pairs
  in
  let activations = build_activations setup scenario in
  let net = Network.create ~config ~topology ~protocol () in
  let flow_utility =
    if Nf_sim.Protocol.needs_utility protocol then fun idx ->
      Some (utility_of idx)
    else fun _ -> None
  in
  List.iter
    (fun a ->
      let { Nf_workload.Traffic.src; dst } =
        scenario.Semidynamic.pairs.(a.path_idx)
      in
      Network.add_flow net
        (Network.flow ~path:paths.(a.path_idx)
           ?utility:(flow_utility a.path_idx) ~start:a.start_at ~id:a.flow_id
           ~src ~dst ());
      match a.stop_at with
      | Some at -> Network.stop_flow_at net ~id:a.flow_id at
      | None -> ())
    activations;
  (* Oracle targets per event epoch. *)
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topology) in
  let oracle =
    Nf_num.Oracle.Warm.create ~caller:"Psupport.semidyn"
      ~n_links:(Array.length caps)
  in
  let target_for actives =
    let groups =
      List.map
        (fun a -> Problem.single_path (utility_of a.path_idx) paths.(a.path_idx))
        actives
    in
    Nf_num.Oracle.Warm.solve oracle (Problem.create ~caps ~groups)
  in
  let rise = Nf_util.Ewma.rise_time_90 ~tau:config.Nf_sim.Config.rate_measure_tau in
  let times = ref [] in
  let unconverged = ref 0 in
  (* Let the initial population settle through epoch 0, then measure each
     event epoch. *)
  for k = 0 to setup.n_events do
    let t_start = float_of_int k *. setup.event_spacing in
    let t_end = t_start +. setup.event_spacing in
    let actives = active_at activations (t_start +. setup.event_spacing /. 2.) in
    let target = target_for actives in
    let n = List.length actives in
    let needed = int_of_float (ceil (setup.fraction *. float_of_int n)) in
    let sustain_samples =
      Stdlib.max 1 (int_of_float (ceil (setup.sustain /. setup.sample_every)))
    in
    let entry = ref None in
    let ok_streak = ref 0 in
    let confirmed = ref None in
    let t = ref (t_start +. setup.sample_every) in
    while !confirmed = None && !t < t_end do
      Network.run net ~until:!t;
      let inside = ref 0 in
      List.iteri
        (fun i a ->
          match Network.measured_rate net a.flow_id with
          | Some r ->
            if
              Nf_util.Fcmp.within_fraction ~frac:setup.within ~actual:r
                ~target:target.(i)
            then incr inside
          | None -> ())
        actives;
      if !inside >= needed then begin
        if !entry = None then entry := Some !t;
        incr ok_streak;
        if !ok_streak >= sustain_samples then confirmed := !entry
      end
      else begin
        entry := None;
        ok_streak := 0
      end;
      t := !t +. setup.sample_every
    done;
    Network.run net ~until:t_end;
    if k > 0 then begin
      match !confirmed with
      | Some at -> times := Float.max 0. (at -. t_start -. rise) :: !times
      | None -> incr unconverged
    end
  done;
  {
    times = Array.of_list (List.rev !times);
    unconverged = !unconverged;
    drops = Network.total_drops net;
  }
