(** The one driver that takes xWI to a KKT-certified answer.

    Every caller that wants an optimum rather than a single {!Xwi_core.step}
    (the serve engine's epochs, the exact {!Oracle}s, the fluid Oracle
    policy, the churn and random-validation experiments) goes through
    {!run}: a problem, a start and a policy in, the solved state and a
    typed {!outcome} out. The loop is {!Xwi_core.run_until_kkt}; the only
    fallback is a cold restart at β = 0.8. The policy table of every
    caller is in DESIGN.md "Solve policy". *)

type start =
  | Cold  (** {!Xwi_core.init}: prices seeded at the equal-weight allocation *)
  | Prices of float array
      (** {!Xwi_core.init_with_prices}: re-seed from carried per-link prices
          (copied, never written) *)
  | Resume of Xwi_core.state
      (** {!Xwi_core.resize}: carry a previous state's prices and pool
          across a problem delta *)

type policy = {
  caller : string;  (** names the solve in non-convergence reports *)
  tol : float;  (** worst KKT residual that certifies the answer *)
  check_every : int;  (** steps between KKT checks *)
  max_iters : int;  (** step cap of the first leg *)
  fallback_iters : int;
      (** step cap of the cold restart at β = 0.8 that runs when the first
          leg ends uncertified; [0] disables the fallback *)
}

type outcome = {
  iterations : int;  (** steps over both legs *)
  residual : float;
      (** [Kkt.worst] of the returned state: the value the last KKT check
          of {!Xwi_core.run_until_kkt} computed *)
  warm : bool;  (** the returned state descends from a [Prices]/[Resume] start *)
  fallback : bool;  (** the first leg ended uncertified and the cold restart ran *)
  converged : bool;  (** [residual <= tol] *)
}

val run : policy -> Problem.t -> start -> Xwi_core.state * outcome
(** Build the start state, run it to [policy.tol] under
    {!Xwi_core.default_params}, and if that fails and
    [policy.fallback_iters > 0], restart cold with β = 0.8.
    An uncertified answer is reported in the outcome, never raised;
    {!Oracle} turns it into {!Oracle.Did_not_converge} for the callers
    that need a certified one.
    @raise Invalid_argument if a [Prices]/[Resume] start was sized for a
    different link count. *)
