(* One solve driver: start state, one run_until_kkt leg, and at most one
   cold restart at heavier damping. See DESIGN.md "Solve policy". *)

type start = Cold | Prices of float array | Resume of Xwi_core.state

type policy = {
  caller : string;
  tol : float;
  check_every : int;
  max_iters : int;
  fallback_iters : int;
}

type outcome = {
  iterations : int;
  residual : float;
  warm : bool;
  fallback : bool;
  converged : bool;
}

let run policy problem start =
  let leg params ~max_iters state =
    Xwi_core.run_until_kkt ~tol:policy.tol ~check_every:policy.check_every
      ~max_iters problem params state
  in
  let outcome (r : Xwi_core.run) ~iterations ~warm ~fallback =
    { iterations; residual = r.residual; warm; fallback; converged = r.converged }
  in
  let state, warm =
    match start with
    | Cold -> (Xwi_core.init problem, false)
    | Prices prices -> (Xwi_core.init_with_prices problem ~prices, true)
    | Resume old -> (Xwi_core.resize problem old, true)
  in
  let first = leg Xwi_core.default_params ~max_iters:policy.max_iters state in
  if first.converged || policy.fallback_iters <= 0 then
    (state, outcome first ~iterations:first.iterations ~warm ~fallback:false)
  else begin
    let state = Xwi_core.init ?pool:state.pool problem in
    let second =
      leg { Xwi_core.default_params with beta = 0.8 }
        ~max_iters:policy.fallback_iters state
    in
    ( state,
      outcome second
        ~iterations:(first.iterations + second.iterations)
        ~warm:false ~fallback:true )
  end
