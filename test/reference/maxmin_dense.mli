(** Dense (flow-major) weighted max-min water-filling: the test oracle
    for {!Nf_num.Maxmin.solve_sparse}.

    Every flow [i] gets rate [w_i * f_i] where [f_i] is the largest fair
    share such that no link is over-subscribed and every flow is
    bottlenecked at some saturated link. O(rounds · nnz); the sparse
    kernel freezes the same flows at the same levels and agrees to
    rounding. *)

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

val solve_problem : Nf_num.Problem.t -> weights:float array -> result
(** Convenience wrapper reading capacities and paths from a problem
    (group structure is ignored: max-min operates on sub-flows). *)

val is_maxmin : ?tol:float -> caps:float array -> paths:int array array ->
  weights:float array -> float array -> bool
(** Check (up to relative tolerance [tol], default 1e-6) that an allocation
    is the weighted max-min one: it is feasible and every flow crosses a
    saturated link on which its normalized share [x_i / w_i] is maximal.
    Independent of how the allocation was computed. *)
