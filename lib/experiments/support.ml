module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Scheme = Nf_fluid.Scheme
module Convergence = Nf_fluid.Convergence
module Routing = Nf_topo.Routing
module Topology = Nf_topo.Topology
module Json = Nf_util.Json

type scheme_kind =
  | Scheme_numfabric of { params : Xwi_core.params; interval : float }
  | Scheme_dgd of { params : Nf_fluid.Fluid_dgd.params; interval : float }
  | Scheme_rcp of {
      params : Nf_fluid.Fluid_rcp.params;
      interval : float;
      alpha : float;
    }

let numfabric_default =
  Scheme_numfabric
    { params = Xwi_core.default_params; interval = Nf_fluid.Fluid_xwi.default_interval }

let dgd_default =
  Scheme_dgd
    {
      params = Nf_fluid.Fluid_dgd.default_params;
      interval = Nf_fluid.Fluid_dgd.default_interval;
    }

let rcp_default ~alpha =
  Scheme_rcp
    {
      params = Nf_fluid.Fluid_rcp.default_params;
      interval = Nf_fluid.Fluid_rcp.default_interval;
      alpha;
    }

let scheme_name = function
  | Scheme_numfabric _ -> "NUMFabric"
  | Scheme_dgd _ -> "DGD"
  | Scheme_rcp _ -> "RCP*"

let make_scheme kind problem =
  match kind with
  | Scheme_numfabric { params; interval } ->
    Nf_fluid.Fluid_xwi.make ~params ~interval problem
  | Scheme_dgd { params; interval } -> Nf_fluid.Fluid_dgd.make ~params ~interval problem
  | Scheme_rcp { params; interval; alpha } ->
    Nf_fluid.Fluid_rcp.make ~params ~interval ~alpha problem

module Warm_oracle = struct
  type t = { mutable prices : float array option; n_links : int }

  let create ~n_links = { prices = None; n_links }

  let solve ?(tol = 1e-5) t problem =
    if Problem.n_links problem <> t.n_links then
      invalid_arg "Warm_oracle.solve: link count mismatch";
    let params = Xwi_core.default_params in
    let state =
      match t.prices with
      | Some prices -> Xwi_core.init_with_prices problem ~prices
      | None -> Xwi_core.init problem
    in
    let run = Xwi_core.run_until_kkt ~tol ~max_iters:3_000 problem params state in
    let state =
      if run.Xwi_core.converged then state
      else begin
        (* Cold restart with extra damping. *)
        let state = Xwi_core.init problem in
        let params = { params with Xwi_core.beta = 0.8 } in
        ignore (Xwi_core.run_until_kkt ~tol ~max_iters:20_000 problem params state);
        state
      end
    in
    let report =
      Nf_num.Kkt.check problem ~rates:state.Xwi_core.rates
        ~prices:state.Xwi_core.prices
    in
    if Nf_num.Kkt.worst report > tol then
      raise
        (Nf_num.Oracle.Did_not_converge
           (Format.asprintf "Warm_oracle.solve: %a" Nf_num.Kkt.pp report));
    t.prices <- Some (Array.copy state.Xwi_core.prices);
    Array.copy state.Xwi_core.rates
end

type semidyn_setup = {
  seed : int;
  n_paths : int;
  flows_per_event : int;
  active_min : int;
  active_max : int;
  n_events : int;
  utility_of : int -> Nf_num.Utility.t;
  criteria : Convergence.criteria;
}

let default_semidyn ?(seed = 1) ?(n_events = 100) () =
  {
    seed;
    n_paths = 1000;
    flows_per_event = 100;
    active_min = 300;
    active_max = 500;
    n_events;
    utility_of = (fun _ -> Nf_num.Utility.proportional_fair ());
    criteria =
      {
        Convergence.within = 0.1;
        fraction = 0.95;
        sustain = 1e-3;
        max_time = 50e-3;
      };
  }

type semidyn_result = { times : float array; unconverged : int }

type semidyn_scenario = {
  problems : Problem.t array;
  targets : float array array;
}

let semidyn_prepare ~setup ~topology ~hosts () =
  let rng = Nf_util.Rng.create ~seed:setup.seed in
  let scenario =
    Nf_workload.Semidynamic.generate rng ~hosts ~n_paths:setup.n_paths
      ~flows_per_event:setup.flows_per_event ~active_min:setup.active_min
      ~active_max:setup.active_max ~n_events:setup.n_events ()
  in
  (* Resolve each path once. *)
  let paths =
    Array.mapi
      (fun i { Nf_workload.Traffic.src; dst } ->
        Array.of_list (Routing.ecmp_path topology ~src ~dst ~hash:(i * 2654435761)))
      scenario.Nf_workload.Semidynamic.pairs
  in
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topology) in
  let problem_of active =
    let groups =
      List.map (fun i -> Problem.single_path (setup.utility_of i) paths.(i)) active
    in
    Problem.create ~caps ~groups
  in
  let oracle = Warm_oracle.create ~n_links:(Array.length caps) in
  let problems =
    Array.init (setup.n_events + 1) (fun k ->
        problem_of (Nf_workload.Semidynamic.active_after scenario k))
  in
  let targets =
    Nf_util.Profile.time "oracle-targets" @@ fun () ->
    Array.map (Warm_oracle.solve oracle) problems
  in
  { problems; targets }

let semidyn_run ~scenario ~criteria ~scheme =
  (* Accounted per scheme so a profiled fig4a/fig6 run shows how the wall
     time splits between the schemes under comparison. *)
  Nf_util.Profile.time ("fluid-" ^ scheme_name scheme) @@ fun () ->
  let s = make_scheme scheme scenario.problems.(0) in
  (* Let the initial population settle before the first event. *)
  ignore (Convergence.measure ~criteria s ~target:scenario.targets.(0));
  let times = ref [] in
  let unconverged = ref 0 in
  for k = 1 to Array.length scenario.problems - 1 do
    s.Scheme.rebind scenario.problems.(k);
    let outcome = Convergence.measure ~criteria s ~target:scenario.targets.(k) in
    match outcome.Convergence.time with
    | Some t -> times := t :: !times
    | None -> incr unconverged
  done;
  { times = Array.of_list (List.rev !times); unconverged = !unconverged }

let semidyn_convergence ~setup ~topology ~hosts ~scheme () =
  let scenario = semidyn_prepare ~setup ~topology ~hosts () in
  semidyn_run ~scenario ~criteria:setup.criteria ~scheme

let dynamic_flows ~seed ~topology ~hosts ~size_dist ~load ~n_flows ~utility_of =
  let rng = Nf_util.Rng.create ~seed in
  (* Host line rate: capacity of the first link leaving the first host. *)
  let host_capacity =
    match Topology.out_links topology hosts.(0) with
    | lid :: _ -> (Topology.link topology lid).Topology.capacity
    | [] -> invalid_arg "Support.dynamic_flows: host has no uplink"
  in
  let rate_per_sec =
    Nf_workload.Traffic.load_to_rate ~load ~n_hosts:(Array.length hosts)
      ~host_capacity ~mean_size:(Nf_workload.Size_dist.mean size_dist)
  in
  (* Generate a long-enough Poisson horizon, then truncate to n_flows. *)
  let duration = 2. *. float_of_int n_flows /. rate_per_sec in
  let pairs = Nf_workload.Traffic.random_pairs rng ~hosts ~n:(4 * n_flows) in
  let arrivals =
    Nf_workload.Traffic.poisson_arrivals rng ~pairs ~size_dist ~rate_per_sec ~duration
  in
  let flows =
    List.filteri (fun i _ -> i < n_flows) arrivals
    |> List.mapi (fun i { Nf_workload.Traffic.at; size; pair } ->
           let path =
             Array.of_list
               (Routing.ecmp_path topology ~src:pair.Nf_workload.Traffic.src
                  ~dst:pair.Nf_workload.Traffic.dst ~hash:(i * 2654435761))
           in
           {
             Nf_fluid.Dynamic.key = i;
             arrival = at;
             size;
             path;
             utility = utility_of ~size;
           })
  in
  if List.length flows < n_flows then
    invalid_arg "Support.dynamic_flows: horizon too short (internal)";
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topology) in
  (flows, caps)

let pp_rate_gbps ppf r = Format.fprintf ppf "%.3f Gbps" (r /. 1e9)

let pp_cdf_summary ppf samples =
  if Array.length samples = 0 then Format.fprintf ppf "(no samples)"
  else begin
    let p q = Nf_util.Stats.percentile samples q *. 1e6 in
    Format.fprintf ppf
      "min %.0f | p25 %.0f | median %.0f | p75 %.0f | p95 %.0f | max %.0f (us)"
      (p 0.) (p 25.) (p 50.) (p 75.) (p 95.) (p 100.)
  end

(* ------------------------------------------------------------------ *)
(* Run-record collection: experiments deposit the Record.t of each
   packet-level network they ran; the CLI exports the collection after
   the experiment returns ([nf_run exp NAME --record out.json]).

   The collection is process-global shared state, and Runner executes
   experiments on worker domains — so deposits are mutex-protected and
   the JSON export is sorted by label, which keeps the exported bytes
   independent of domain scheduling. (Everything else the experiments
   touch is task-local: every RNG is an explicit Nf_util.Rng.t created
   from a Ctx-derived seed; there is no process-global random state.) *)

let records_mutex = Mutex.create ()

let collected_records : (string * Nf_sim.Record.t) list ref = ref []

let with_records f =
  Mutex.lock records_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock records_mutex) f

let reset_records () = with_records (fun () -> collected_records := [])

let keep_record ~label record =
  with_records (fun () ->
      collected_records := (label, record) :: !collected_records)

let records () = with_records (fun () -> List.rev !collected_records)

let records_json () =
  let run (label, record) =
    Json.Obj [ ("label", Json.Str label); ("record", Nf_sim.Record.to_json record) ]
  in
  Json.Obj
    [
      ( "runs",
        Json.List
          (List.map run
             (List.sort (fun (a, _) (b, _) -> String.compare a b) (records ()))) );
    ]
