module Problem = Nf_num.Problem

type params = { gain_spare : float; gain_queue : float; mean_rtt : float }

let default_params = { gain_spare = 0.4; gain_queue = 0.2; mean_rtt = 16e-6 }

let default_interval = 16e-6

let path_line_rate problem i =
  let caps = Problem.caps problem in
  Array.fold_left
    (fun acc l -> Float.min acc caps.(l))
    infinity (Problem.flow_path problem i)

(* Eq. 16: x_i = (sum_l R_l^-alpha)^(-1/alpha), capped at the line rate. *)
let compute_rates problem ~alpha ~fair_rates =
  Array.init (Problem.n_flows problem) (fun i ->
      let acc = ref 0. in
      Array.iter
        (fun l -> acc := !acc +. (Float.max fair_rates.(l) 1e-3 ** -.alpha))
        (Problem.flow_path problem i);
      let x = !acc ** (-1. /. alpha) in
      Float.min x (path_line_rate problem i))

let make_with_fair_rates ?(params = default_params)
    ?(interval = default_interval) ?trace ~alpha problem =
  if not (alpha > 0.) then invalid_arg "Fluid_rcp.make: alpha must be positive";
  if not (Problem.is_single_path problem) then
    invalid_arg "Fluid_rcp.make: multipath problems are not supported";
  let module Trace = Nf_util.Trace in
  let iter = ref 0 in
  let problem = ref problem in
  let n_links = Problem.n_links !problem in
  let caps0 = Problem.caps !problem in
  (* Advertise the per-link equal share initially. *)
  let fair_rates =
    Array.init n_links (fun l ->
        let n = Nf_num.Incidence.link_degree (Problem.incidence !problem) l in
        caps0.(l) /. float_of_int (Stdlib.max n 1))
  in
  let queues = Array.make n_links 0. in
  (* bytes *)
  let loads = Array.make n_links 0. in
  let rates = ref (compute_rates !problem ~alpha ~fair_rates) in
  let step () =
    let p = !problem in
    let caps = Problem.caps p in
    let x = compute_rates p ~alpha ~fair_rates in
    rates := x;
    Problem.link_loads_into p ~rates:x loads;
    for l = 0 to n_links - 1 do
      let excess = loads.(l) -. caps.(l) in
      queues.(l) <- Float.max 0. (queues.(l) +. (excess *. interval /. 8.));
      let queue_rate = 8. *. queues.(l) /. params.mean_rtt in
      let update =
        interval /. params.mean_rtt
        *. ((params.gain_spare *. (caps.(l) -. loads.(l)))
            -. (params.gain_queue *. queue_rate))
        /. caps.(l)
      in
      (* Multiplicative update, clamped to keep R positive and bounded. *)
      let factor = Nf_util.Fcmp.clamp ~lo:0.5 ~hi:2. (1. +. update) in
      (* An idle link advertises a fair share far above its capacity (its
         R^-alpha contribution must vanish at the NUM fixed point); only
         the lower bound guards numeric collapse. *)
      fair_rates.(l) <-
        Nf_util.Fcmp.clamp ~lo:(caps.(l) *. 1e-6) ~hi:(caps.(l) *. 100.)
          (fair_rates.(l) *. factor)
    done;
    incr iter;
    let tr =
      match trace with Some tr -> tr | None -> Nf_util.Trace.default ()
    in
    if Trace.on tr Trace.PriceUpdate then begin
      let time = float_of_int !iter *. interval in
      Array.iteri
        (fun l r -> Trace.emit tr Trace.PriceUpdate ~subject:l ~time r)
        fair_rates
    end
  in
  let rebind p =
    if Problem.n_links p <> n_links then
      invalid_arg "Fluid_rcp.rebind: link count changed";
    if not (Problem.is_single_path p) then
      invalid_arg "Fluid_rcp.rebind: multipath problems are not supported";
    problem := p;
    rates := compute_rates p ~alpha ~fair_rates
  in
  let scheme =
    {
      Scheme.name = "RCP*";
      interval;
      step;
      rates = (fun () -> Array.copy !rates);
      rates_view = (fun () -> !rates);
      rebind;
      observe_remaining = Scheme.nop_observe;
    }
  in
  (scheme, fun () -> Array.copy fair_rates)

let make ?params ?interval ?trace ~alpha problem =
  fst (make_with_fair_rates ?params ?interval ?trace ~alpha problem)
