(** Weighted max-min fair allocation by water-filling.

    This is the allocation the Swift transport achieves in steady state
    (§4.1): every flow [i] gets rate [w_i * f_i] where [f_i] is the largest
    fair share such that no link is over-subscribed and every flow is
    bottlenecked at some saturated link. The fluid xWI iteration calls this
    once per iteration (Eq. 8 of the paper). *)

type result = {
  rates : float array;
  bottleneck : int array;
    (** [bottleneck.(i)] is the link at which flow [i] froze. *)
  fair_share : float array;  (** [f_i = rates.(i) / w_i] *)
}

val solve : caps:float array -> paths:int array array -> weights:float array -> result
(** [solve ~caps ~paths ~weights] computes the weighted max-min allocation.
    Requirements: every path non-empty with valid link ids, every weight
    strictly positive, every capacity strictly positive.
    @raise Invalid_argument if the requirements are violated. *)

val solve_problem : Problem.t -> weights:float array -> result
(** Convenience wrapper reading capacities and paths from a {!Problem.t}
    (group structure is ignored: max-min operates on sub-flows). *)

type sparse_workspace
(** Scratch state for {!solve_sparse}, sized for one {!Incidence.t}.
    Reusable across solves; not thread-safe. *)

val sparse_workspace : Incidence.t -> sparse_workspace

val solve_sparse :
  sparse_workspace ->
  Incidence.t ->
  weights:Incidence.vec ->
  rates:Incidence.vec ->
  unit
(** CSR/CSC-driven water-filling: same semantics as {!solve} but the
    freeze scan is link-major over the CSC columns of the round's
    saturated links, so work is O(rounds · n_links + nnz) instead of
    O(rounds · nnz). Rates agree with {!solve} to floating-point rounding
    (the active-weight decrements accumulate in a different order), not
    bitwise; capacities are read from the incidence's [caps] vec (callers
    mutating {!Problem.caps} must {!Incidence.sync_caps} first). Inputs
    are assumed validated (strictly positive weights and capacities). *)

val sparse_rounds : sparse_workspace -> int
(** Water-fill rounds of the last {!solve_sparse} on this workspace (each
    round raises the fill level to the next saturating link). Diagnostic;
    1 at the xWI fixpoint. *)

val sparse_saturated_links : sparse_workspace -> int
(** Links that saturated across all rounds of the last {!solve_sparse}
    (i.e. bottleneck links actually constraining the allocation). *)

val sparse_level : sparse_workspace -> float
(** Final fair-share fill level of the last {!solve_sparse}. *)

val is_maxmin : ?tol:float -> caps:float array -> paths:int array array ->
  weights:float array -> float array -> bool
(** Check (up to relative tolerance [tol], default 1e-6) that an allocation
    is the weighted max-min one: it is feasible and every flow crosses a
    saturated link on which its normalized share [x_i / w_i] is maximal.
    Used by tests and to validate packet-level Swift. *)
