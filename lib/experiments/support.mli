(** Shared machinery for the evaluation experiments (§6).

    The central piece is the {e semi-dynamic} harness of §6.1: persistent
    flows on random leaf–spine paths, network events that start/stop 100
    flows at a time, and per-event measurement of the time for 95% of
    flows to come within 10% of the Oracle allocation. It is reused by
    Figure 4a, the sensitivity sweeps of Figure 6, and the ablations. *)

type scheme_kind =
  | Scheme_numfabric of { params : Nf_num.Xwi_core.params; interval : float }
  | Scheme_dgd of { params : Nf_fluid.Fluid_dgd.params; interval : float }
  | Scheme_rcp of { params : Nf_fluid.Fluid_rcp.params; interval : float; alpha : float }

val numfabric_default : scheme_kind

val dgd_default : scheme_kind

val rcp_default : alpha:float -> scheme_kind

val scheme_name : scheme_kind -> string

val make_scheme : scheme_kind -> Nf_num.Problem.t -> Nf_fluid.Scheme.t

(** A reusable warm-started exact solver: keeps link prices across calls so
    that successive, similar problems solve in few iterations. *)
module Warm_oracle : sig
  type t

  val create : n_links:int -> t

  val solve : ?tol:float -> t -> Nf_num.Problem.t -> float array
  (** Optimal per-flow rates; raises {!Nf_num.Oracle.Did_not_converge} if
      even a cold restart cannot reach the KKT tolerance (default 1e-5). *)
end

type semidyn_setup = {
  seed : int;
  n_paths : int;
  flows_per_event : int;
  active_min : int;
  active_max : int;
  n_events : int;
  utility_of : int -> Nf_num.Utility.t;  (** keyed by flow index *)
  criteria : Nf_fluid.Convergence.criteria;
}

val default_semidyn : ?seed:int -> ?n_events:int -> unit -> semidyn_setup
(** The paper's §6.1 scenario: 1000 paths, 100 flows/event, 300–500
    active, proportional fairness, 10%/95% criteria. The sustain window is
    1 ms (the paper uses 5 ms to reject measurement noise; fluid rates are
    exact, and the reported time is the entry instant either way). *)

type semidyn_result = {
  times : float array;  (** per-event convergence times, seconds *)
  unconverged : int;  (** events that never met the criteria *)
}

type semidyn_scenario = {
  problems : Nf_num.Problem.t array;
    (** [problems.(0)] is the initial population; [problems.(k)] the
        population after event [k] *)
  targets : float array array;  (** Oracle rates for each problem *)
}

val semidyn_prepare :
  setup:semidyn_setup ->
  topology:Nf_topo.Topology.t ->
  hosts:int array ->
  unit ->
  semidyn_scenario
(** Generates the event sequence and solves the Oracle target for every
    population once (the expensive part, shared by all schemes). *)

val semidyn_run :
  scenario:semidyn_scenario ->
  criteria:Nf_fluid.Convergence.criteria ->
  scheme:scheme_kind ->
  semidyn_result
(** Replays the event sequence for one scheme: the scheme's link state
    persists across events exactly as switch state would. *)

val semidyn_convergence :
  setup:semidyn_setup ->
  topology:Nf_topo.Topology.t ->
  hosts:int array ->
  scheme:scheme_kind ->
  unit ->
  semidyn_result
(** [semidyn_prepare] + [semidyn_run] for a single scheme. *)

val dynamic_flows :
  seed:int ->
  topology:Nf_topo.Topology.t ->
  hosts:int array ->
  size_dist:Nf_workload.Size_dist.t ->
  load:float ->
  n_flows:int ->
  utility_of:(size:float -> Nf_num.Utility.t) ->
  Nf_fluid.Dynamic.flow_spec list * float array
(** Poisson arrivals over random host pairs at the given fraction of the
    aggregate host capacity, sized from [size_dist], routed by ECMP.
    Returns the flow list (exactly [n_flows] of them) and the link
    capacity vector of [topology]. *)

(** Formatting helpers shared by the bench printers. *)
val pp_rate_gbps : Format.formatter -> float -> unit

val pp_cdf_summary : Format.formatter -> float array -> unit
(** Prints min / p25 / median / p75 / p95 / max of a sample set (in µs,
    for convergence times). *)

(** {2 Run records}

    Packet-level experiments deposit each network's {!Nf_sim.Record.t}
    here ({!keep_record}); the CLI resets the collection before a run and
    exports it afterwards ([nf_run exp NAME --record out.json]).
    Deposits are mutex-protected (experiments may run on {!Runner}
    worker domains) and the JSON export is sorted by label so its bytes
    do not depend on scheduling. *)

val reset_records : unit -> unit

val keep_record : label:string -> Nf_sim.Record.t -> unit

val records : unit -> (string * Nf_sim.Record.t) list
(** Records kept since the last reset, in deposit order (deposit order
    is scheduling-dependent under a parallel runner). *)

val records_json : unit -> Nf_util.Json.t
(** [{"runs":[{"label":...,"record":<Record.to_json>},...]}], sorted by
    label. *)
