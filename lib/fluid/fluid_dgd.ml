module Problem = Nf_num.Problem
module Utility = Nf_num.Utility

type params = { gain_util : float; gain_queue : float }

let default_params = { gain_util = 0.3; gain_queue = 0.15 }

let default_interval = 16e-6

(* Price magnitude the gains are normalized by: the mean marginal utility
   per hop at the equal-weight max-min allocation [rates]. *)
let price_scale problem ~rates =
  let acc = ref 0. in
  let n = Problem.n_flows problem in
  for i = 0 to n - 1 do
    let u = Problem.group_utility problem (Problem.flow_group problem i) in
    acc :=
      !acc
      +. u.Utility.deriv (Float.max rates.(i) 1e-12)
         /. float_of_int (Problem.path_len problem i)
  done;
  Float.max (!acc /. float_of_int (Stdlib.max n 1)) 1e-30

let path_line_rate problem i =
  let caps = Problem.caps problem in
  Array.fold_left
    (fun acc l -> Float.min acc caps.(l))
    infinity (Problem.flow_path problem i)

let compute_rates problem ~prices =
  Array.init (Problem.n_flows problem) (fun i ->
      let u = Problem.group_utility problem (Problem.flow_group problem i) in
      Utility.rate_from_price u
        ~max_rate:(path_line_rate problem i)
        (Problem.path_price problem ~prices i))

let make_with_prices ?(params = default_params) ?(interval = default_interval)
    ?trace problem =
  if not (Problem.is_single_path problem) then
    invalid_arg "Fluid_dgd.make: multipath problems are not supported";
  let module Trace = Nf_util.Trace in
  let iter = ref 0 in
  let problem = ref problem in
  let n_links = Problem.n_links !problem in
  let seed_rates = Nf_num.Xwi_core.equal_weight_rates !problem in
  let scale = price_scale !problem ~rates:seed_rates in
  (* Start from the seed prices xWI also uses so that the comparison is
     about dynamics, not initialization. *)
  let prices = Nf_num.Xwi_core.seed_prices !problem ~rates:seed_rates in
  let queues = Array.make n_links 0. in
  (* bytes *)
  let loads = Array.make n_links 0. in
  let rates = ref (compute_rates !problem ~prices) in
  let step () =
    let p = !problem in
    let caps = Problem.caps p in
    let x = compute_rates p ~prices in
    rates := x;
    Problem.link_loads_into p ~rates:x loads;
    for l = 0 to n_links - 1 do
      let excess = loads.(l) -. caps.(l) in
      queues.(l) <- Float.max 0. (queues.(l) +. (excess *. interval /. 8.));
      let bdp_bytes = caps.(l) *. interval /. 8. in
      let a = params.gain_util *. scale /. caps.(l) in
      let b = params.gain_queue *. scale /. Float.max bdp_bytes 1. in
      prices.(l) <- Float.max 0. (prices.(l) +. (a *. excess) +. (b *. queues.(l)))
    done;
    incr iter;
    let tr =
      match trace with Some tr -> tr | None -> Nf_util.Trace.default ()
    in
    if Trace.on tr Trace.PriceUpdate then begin
      let time = float_of_int !iter *. interval in
      Array.iteri
        (fun l p -> Trace.emit tr Trace.PriceUpdate ~subject:l ~time p)
        prices
    end
  in
  let rebind p =
    if Problem.n_links p <> n_links then
      invalid_arg "Fluid_dgd.rebind: link count changed";
    if not (Problem.is_single_path p) then
      invalid_arg "Fluid_dgd.rebind: multipath problems are not supported";
    problem := p;
    rates := compute_rates p ~prices
  in
  let scheme =
    {
      Scheme.name = "DGD";
      interval;
      step;
      rates = (fun () -> Array.copy !rates);
      rates_view = (fun () -> !rates);
      rebind;
      observe_remaining = Scheme.nop_observe;
    }
  in
  (scheme, fun () -> Array.copy prices)

let make ?params ?interval ?trace problem =
  fst (make_with_prices ?params ?interval ?trace problem)
