(** Exact NUM solvers ("Oracle" of §6).

    Two independent methods are provided so that each can certify the
    other (and the packet-level system) in tests:

    - {!solve_dual}: classical dual (sub)gradient descent with backtracking
      line search — independent of the xWI machinery but restricted to
      single-path problems (the multipath dual is non-smooth);
    - {!solve}: xWI run to a KKT tolerance through {!Solve.run} —
      handles multipath groups; its output is certified by the returned
      KKT residuals, which are checked against an explicit tolerance.

    {!Warm} is the warm-started variant for sequences of similar
    problems (the fluid and packet Oracle targets).

    Both return the KKT report so callers never have to trust the solver
    blindly. *)

type solution = {
  rates : float array;  (** per sub-flow *)
  group_rates : float array;
  prices : float array;
  iterations : int;
  kkt : Kkt.report;
}

exception Did_not_converge of string

val solve_dual : ?tol:float -> ?max_iters:int -> Problem.t -> solution
(** Dual gradient descent; [tol] (default 1e-8) bounds the worst KKT
    residual of the returned solution.
    @raise Invalid_argument on multipath problems.
    @raise Did_not_converge if the residual target is not met. *)

val solve : ?tol:float -> ?max_iters:int -> Problem.t -> solution
(** A cold {!Solve.run} ([check_every] 10, [max_iters] steps, then a cold
    restart at β = 0.8 of [max_iters] more); [tol] (default 1e-6) bounds
    the worst KKT residual. [iterations] counts both legs.
    @raise Did_not_converge naming ["Oracle.solve"] if the residual
    target is not met. *)

(** A reusable warm-started exact solver: keeps link prices across calls
    so that successive, similar problems solve in few iterations. *)
module Warm : sig
  type t

  val create : caller:string -> n_links:int -> t
  (** [caller] names the solver in {!Did_not_converge} messages. *)

  val solve : ?tol:float -> t -> Problem.t -> float array
  (** Optimal per-flow rates, from the previous call's prices (the first
      call starts cold): 3 000 steps, then a cold restart at β = 0.8 for
      up to 20 000 more, a KKT check every 10.
      @raise Did_not_converge naming the caller if even the restart
      misses [tol] (default 1e-5); the carried prices stay as they were.
      @raise Invalid_argument on a link-count mismatch. *)
end
