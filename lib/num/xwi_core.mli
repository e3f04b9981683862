(** The xWI (eXplicit Weight Inference) iteration — the paper's core
    algorithm (§4.2).

    One iteration, given link prices [p(t)]:
    + every flow sets its Swift weight [w_i = U'^-1(Σ_{l ∈ L(i)} p_l)]
      (Eq. 7); multipath groups split the group weight across sub-flows in
      proportion to their current throughput share (§6.3's heuristic);
    + the network allocates the weighted max-min rates [x(t)] for these
      weights (Eq. 8) — here computed exactly by {!Maxmin}, in the packet
      simulator achieved by Swift;
    + every link updates its price from the smallest normalized KKT
      residual of its flows and its utilization (Eqs. 9–10), smoothed by
      [β]-averaging (Eq. 11).

    This module is the {e fluid} (noise-free, synchronous) form; the
    packet-level protocol realization lives in [nf_sim]. *)

type residual_agg =
  | Agg_min  (** Eq. 9 as published: each link uses the smallest residual *)
  | Agg_mean  (** ablation: the mean residual instead of the minimum *)

type params = {
  eta : float;  (** utilization-term gain of Eq. 10; paper default 5 *)
  beta : float;  (** price averaging of Eq. 11; paper default 0.5 *)
  residual_agg : residual_agg;  (** Eq. 9 aggregation; default {!Agg_min} *)
}

val default_params : params
(** [{ eta = 5.; beta = 0.5; residual_agg = Agg_min }] — Table 2. *)

type buffers
(** Preallocated per-state scratch arrays (sized for the state's problem):
    {!step} allocates nothing. Only the init functions build these. *)

type state = {
  prices : float array;  (** per link *)
  rates : float array;  (** per flow; last max-min allocation *)
  weights : float array;  (** per flow; last Eq. 7 weights *)
  mutable pool : Nf_util.Shard.t option;
      (** when set, {!step}'s per-link price update is sharded across the
          pool's domains; results are byte-identical for every job count *)
  mutable diag : Diag.t option;
      (** when set, every {!step} records a {!Diag} iteration sample
          (residual norms, water-fill stats, shard timings) and a capped
          run dumps a postmortem; [None] costs one [match] per step *)
  buffers : buffers;
  problem_gen : int;
      (** {!Problem.generation} the buffers were sized for; {!step}
          raises once the problem's topology moves on — rebuild via
          {!resize} *)
}

val init : ?pool:Nf_util.Shard.t -> Problem.t -> state
(** Initial state: prices seeded from the marginal utilities at the
    equal-weight max-min allocation (so the first weight computation is
    well-scaled), rates at that allocation. When a process-wide
    {!Diag.configure}d config is active (the CLI's [--diag]), the state
    auto-attaches a fresh {!Diag.t}. *)

val init_with_prices : ?pool:Nf_util.Shard.t -> Problem.t -> prices:float array -> state
(** Start from given prices (e.g. carried over across a flow-arrival event
    in dynamic scenarios); weights are the Eq. 7 weights of those prices
    (multipath groups split by the {!equal_weight_rates} shares) and rates
    the max-min allocation they induce. Auto-attaches a {!Diag.t} like
    {!init}. *)

val equal_weight_rates : Problem.t -> float array
(** The max-min allocation with every sub-flow at weight 1: the
    allocation the seeds below are computed at. *)

val seed_prices : Problem.t -> rates:float array -> float array
(** [p_l = max] over flows [i] on [l] of [U'_g(y_g) / |L(i)|] at the
    given rates: the price each link would carry if it were the only
    bottleneck of its steepest flow. At {!equal_weight_rates} this is
    {!init}'s seed; other solvers start from it too, so comparisons are
    about dynamics, not initialization. *)

val resize : ?pool:Nf_util.Shard.t -> Problem.t -> state -> state
(** Warm restart after a {!Problem} delta (flow arrivals/departures):
    a fresh state for the problem's current snapshot that {e keeps the
    old state's converged per-link prices} — link ids are stable across
    flow churn, so near the old fixpoint the carried prices make
    re-convergence take a small fraction of a cold start's iterations
    (the [churn] experiment and the [warm_vs_cold_iters] bench kernel
    quantify this). Rates start at the allocation the carried prices
    induce. The pool defaults to the old state's; diagnostics re-attach
    per the process-wide config.
    @raise Invalid_argument if the link count changed. *)

val set_pool : state -> Nf_util.Shard.t option -> unit
(** Attach or detach a domain pool for the sharded price update. The pool
    is borrowed: the caller owns its lifetime and must not {!Nf_util.Shard.stop}
    it while the state is stepping. *)

val set_diag : state -> Diag.t option -> unit
(** Attach or detach per-iteration diagnostics. The instance must be
    sized for the state's problem ([n_links]/[n_flows]). *)

val diag : state -> Diag.t option

val step : Problem.t -> params -> state -> unit
(** One full iteration over the sparse CSR/CSC working set: path prices
    (computed once), Eq. 7 weights, max-min rates, Eqs. 9–11 price
    update. Everything is written in place into the state's own arrays
    (no copies) and scratch buffers — steady-state stepping performs no
    heap allocation beyond the sharding dispatch. The incidence shares
    {!Problem.caps}, so a capacity written there before the step is the
    one it uses. *)

type run = { iterations : int; converged : bool }

val run_to_fixpoint :
  ?tol:float -> ?max_iters:int -> Problem.t -> params -> state -> run
(** Iterate until the largest relative change of any price and rate falls
    below [tol] (default 1e-10) or [max_iters] (default 50_000) is hit.

    Every run increments [nf_xwi_runs_total] and observes
    [nf_xwi_iterations]; a converged run increments
    [nf_xwi_converged_total]. A capped run increments
    [nf_xwi_nonconverged_total], emits an [XwiNonconverged] trace event
    carrying the final residual and iteration count, and — if the state
    carries a {!Diag.t} — dumps a JSONL postmortem via
    {!Diag.dump_auto}. *)

val run_until_kkt :
  ?tol:float -> ?check_every:int -> ?max_iters:int -> Problem.t -> params -> state -> run
(** Iterate until the worst KKT residual of the current (rates, prices)
    falls below [tol] (default 1e-6), checking every [check_every]
    iterations (default 10). This is the efficient stopping rule for
    oracle-style use: per-iteration deltas can stall at numerical noise
    long after the iterate is optimal to any practical tolerance. *)
