(** Weighted max-min fair allocation by water-filling.

    This is the allocation the Swift transport achieves in steady state
    (§4.1): every flow [i] gets rate [w_i * f_i] where [f_i] is the largest
    fair share such that no link is over-subscribed and every flow is
    bottlenecked at some saturated link. The fluid xWI iteration calls
    {!solve_sparse} once per iteration (Eq. 8 of the paper). *)

type sparse_workspace
(** Scratch state for {!solve_sparse}, sized for one {!Incidence.t}.
    Reusable across solves; not thread-safe. *)

val sparse_workspace : Incidence.t -> sparse_workspace

val solve_sparse :
  sparse_workspace ->
  Incidence.t ->
  weights:float array ->
  rates:float array ->
  unit
(** CSR/CSC-driven water-filling into [rates] (length [n_flows]). The
    freeze scan is link-major over the CSC columns of the round's
    saturated links, so work is O(rounds · n_links + nnz). Capacities are
    read from the incidence's [caps], which is {!Problem.caps} itself.
    Inputs are assumed validated (strictly positive weights and
    capacities). *)

val solve_problem : Problem.t -> weights:float array -> float array
(** Fresh-allocating convenience over {!solve_sparse} for one-off
    solves (seeds, oracles, validation): the max-min rates of the
    problem's sub-flows (group structure is ignored).
    @raise Invalid_argument on a weight count other than [n_flows] or a
    non-positive weight. *)

val sparse_rounds : sparse_workspace -> int
(** Water-fill rounds of the last {!solve_sparse} on this workspace (each
    round raises the fill level to the next saturating link). Diagnostic;
    1 at the xWI fixpoint. *)

val sparse_saturated_links : sparse_workspace -> int
(** Links that saturated across all rounds of the last {!solve_sparse}
    (i.e. bottleneck links actually constraining the allocation). *)

val sparse_level : sparse_workspace -> float
(** Final fair-share fill level of the last {!solve_sparse}. *)
