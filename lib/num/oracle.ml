type solution = {
  rates : float array;
  group_rates : float array;
  prices : float array;
  iterations : int;
  kkt : Kkt.report;
}

exception Did_not_converge of string

let make_solution problem ~rates ~prices ~iterations =
  let group_rates = Array.make (Problem.n_groups problem) 0. in
  Problem.group_rates_into problem ~rates group_rates;
  {
    rates;
    group_rates;
    prices;
    iterations;
    kkt = Kkt.check problem ~rates ~prices;
  }

(* Rates induced by prices for a single-path problem (Eq. 3). *)
let rates_of_prices problem ~prices =
  Array.init (Problem.n_flows problem) (fun i ->
      let u = Problem.group_utility problem (Problem.flow_group problem i) in
      Utility.rate_from_price u (Problem.path_price problem ~prices i))

(* Dual objective: q(p) = sum_i [U(x_i(p)) - x_i(p) P_i] + sum_l p_l c_l. *)
let dual_objective problem ~prices =
  let rates = rates_of_prices problem ~prices in
  let total = ref 0. in
  for i = 0 to Problem.n_flows problem - 1 do
    let u = Problem.group_utility problem (Problem.flow_group problem i) in
    let price = Problem.path_price problem ~prices i in
    total := !total +. u.Utility.value rates.(i) -. (rates.(i) *. price)
  done;
  let caps = Problem.caps problem in
  Array.iteri (fun l p -> total := !total +. (p *. caps.(l))) prices;
  !total

let solve_dual ?(tol = 1e-8) ?(max_iters = 300_000) problem =
  if not (Problem.is_single_path problem) then
    invalid_arg "Oracle.solve_dual: multipath problems are not supported";
  let n_links = Problem.n_links problem in
  let caps = Problem.caps problem in
  (* Seed prices as in xWI so the first iterate is well-scaled. *)
  let prices =
    Xwi_core.seed_prices problem ~rates:(Xwi_core.equal_weight_rates problem)
  in
  let mean_price =
    let s = Array.fold_left ( +. ) 0. prices in
    Float.max (s /. float_of_int n_links) 1e-12
  in
  let mean_cap = Array.fold_left ( +. ) 0. caps /. float_of_int n_links in
  let step = ref (mean_price /. mean_cap) in
  let obj = ref (dual_objective problem ~prices) in
  let iterations = ref 0 in
  let converged = ref false in
  let loads = Array.make n_links 0. in
  while (not !converged) && !iterations < max_iters do
    incr iterations;
    let rates = rates_of_prices problem ~prices in
    Problem.link_loads_into problem ~rates loads;
    let grad = Array.init n_links (fun l -> caps.(l) -. loads.(l)) in
    (* Backtracking projected gradient step. *)
    let accepted = ref false in
    let tries = ref 0 in
    while (not !accepted) && !tries < 80 do
      incr tries;
      let candidate =
        Array.init n_links (fun l -> Float.max 0. (prices.(l) -. (!step *. grad.(l))))
      in
      let move =
        let acc = ref 0. in
        Array.iteri
          (fun l p ->
            let d = p -. prices.(l) in
            acc := !acc +. (d *. d))
          candidate;
        !acc
      in
      let cand_obj = dual_objective problem ~prices:candidate in
      if cand_obj <= !obj -. (0.25 /. !step *. move) || Float.equal move 0. then begin
        Array.blit candidate 0 prices 0 n_links;
        obj := cand_obj;
        accepted := true;
        step := !step *. 1.3
      end
      else step := !step /. 2.
    done;
    if !iterations mod 25 = 0 || !iterations = 1 then begin
      let rates = rates_of_prices problem ~prices in
      (* Project onto feasibility before checking: scale down any overloaded
         flow set proportionally per link is complex; instead rely on the
         KKT feasibility residual directly. *)
      let report = Kkt.check problem ~rates ~prices in
      if Kkt.worst report < tol then converged := true
    end
  done;
  let rates = rates_of_prices problem ~prices in
  let sol = make_solution problem ~rates ~prices ~iterations:!iterations in
  if Kkt.worst sol.kkt > tol then
    raise
      (Did_not_converge
         (Format.asprintf "Oracle.solve_dual: after %d iterations, %a"
            !iterations Kkt.pp sol.kkt));
  sol

let solve ?(tol = 1e-6) ?(max_iters = 60_000) problem =
  let params = Xwi_core.default_params in
  let state = Xwi_core.init problem in
  let run = Xwi_core.run_until_kkt ~tol ~max_iters problem params state in
  let check () =
    Kkt.check problem ~rates:state.Xwi_core.rates ~prices:state.Xwi_core.prices
  in
  let report = ref (check ()) in
  let iterations = ref run.Xwi_core.iterations in
  if Kkt.worst !report > tol then begin
    (* Retry with heavier damping; helps borderline multipath instances. *)
    let params = { Xwi_core.default_params with Xwi_core.beta = 0.9 } in
    let run2 = Xwi_core.run_until_kkt ~tol ~max_iters problem params state in
    iterations := !iterations + run2.Xwi_core.iterations;
    report := check ()
  end;
  if Kkt.worst !report > tol then
    raise
      (Did_not_converge
         (Format.asprintf "Oracle.solve: after %d iterations, %a" !iterations
            Kkt.pp !report));
  make_solution problem ~rates:(Array.copy state.Xwi_core.rates)
    ~prices:(Array.copy state.Xwi_core.prices) ~iterations:!iterations
