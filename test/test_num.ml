(* Tests for nf_num: utilities, weighted max-min, bandwidth functions,
   KKT checking, the xWI iteration and the Oracle solvers. *)

module Utility = Nf_num.Utility
module Problem = Nf_num.Problem
module Maxmin = Nf_num.Maxmin
module Maxmin_dense = Nf_num_reference.Maxmin_dense
module Bf = Nf_num.Bandwidth_function
module Kkt = Nf_num.Kkt
module Xwi = Nf_num.Xwi_core
module Oracle = Nf_num.Oracle
module Fcmp = Nf_util.Fcmp
module Units = Nf_util.Units
module Piecewise = Nf_util.Piecewise
module Rng = Nf_util.Rng

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let qcheck = QCheck_alcotest.to_alcotest

let check_close ?(rel = 1e-9) what expected actual =
  if not (Fcmp.rel_eq ~rel expected actual) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let check_rates ?(rel = 1e-6) what expected actual =
  Array.iteri
    (fun i e ->
      if not (Fcmp.rel_eq ~rel e actual.(i)) then
        Alcotest.failf "%s: flow %d expected %.10g, got %.10g" what i e actual.(i))
    expected

(* ------------------------------------------------------------------ *)
(* Utility functions *)

let test_alpha_fair_log () =
  let u = Utility.proportional_fair () in
  check_close "U(x) = ln x" (log 5.) (u.Utility.value 5.);
  check_close "U'(x) = 1/x" 0.2 (u.Utility.deriv 5.);
  check_close "U'^-1(p) = 1/p" 5. (u.Utility.inv_deriv 0.2)

let test_alpha_fair_weighted () =
  let u = Utility.alpha_fair ~weight:3. ~alpha:2. () in
  (* U'(x) = w^a x^-a = 9 x^-2 *)
  check_close "deriv" (9. /. 25.) (u.Utility.deriv 5.);
  check_close "inverse" 5. (u.Utility.inv_deriv (9. /. 25.))

let test_alpha_fair_validation () =
  Alcotest.check_raises "alpha 0"
    (Invalid_argument "Utility.alpha_fair: alpha must be positive") (fun () ->
      ignore (Utility.alpha_fair ~alpha:0. ()));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Utility.alpha_fair: weight must be positive") (fun () ->
      ignore (Utility.alpha_fair ~weight:(-1.) ~alpha:1. ()))

let test_fct_matches_weighted_alpha () =
  (* fct(size, eps) should equal alpha_fair(alpha = eps, w = size^(-1/eps)). *)
  let size = 1e6 and eps = 0.125 in
  let u = Utility.fct ~size ~eps in
  let v = Utility.alpha_fair ~weight:(size ** (-1. /. eps)) ~alpha:eps () in
  List.iter
    (fun x ->
      check_close "deriv agreement" (v.Utility.deriv x) (u.Utility.deriv x))
    [ 1e3; 1e6; 1e9 ];
  (* Marginal utility at equal rate is larger for smaller flows. *)
  let small = Utility.fct ~size:1e3 ~eps in
  Alcotest.(check bool) "smaller flows have steeper utility" true
    (small.Utility.deriv 1e6 > u.Utility.deriv 1e6)

let test_deadline_utility () =
  (* Earlier deadlines get steeper utilities, hence priority. *)
  let tight = Utility.deadline ~deadline:1e-3 ~eps:0.125 in
  let loose = Utility.deadline ~deadline:50e-3 ~eps:0.125 in
  Alcotest.(check bool) "tight deadline is steeper" true
    (tight.Utility.deriv 1e9 > loose.Utility.deriv 1e9);
  Alcotest.check_raises "bad deadline"
    (Invalid_argument "Utility.deadline: deadline must be positive") (fun () ->
      ignore (Utility.deadline ~deadline:0. ~eps:0.125))

let test_fct_remaining_tracks () =
  (* As a flow drains, its remaining-size utility steepens past a fresh
     larger flow's. *)
  let big = Utility.fct_remaining ~remaining:1e7 ~eps:0.125 in
  let drained = Utility.fct_remaining ~remaining:1e4 ~eps:0.125 in
  Alcotest.(check bool) "drained flow gains priority" true
    (drained.Utility.deriv 1e8 > big.Utility.deriv 1e8);
  (* Degenerate remaining values are clamped, not errors. *)
  let z = Utility.fct_remaining ~remaining:0. ~eps:0.125 in
  Alcotest.(check bool) "zero remaining clamps" true
    (Float.is_finite (z.Utility.deriv 1e6))

let test_rate_from_price_clamps () =
  let u = Utility.proportional_fair () in
  let r = Utility.rate_from_price u 0. in
  Alcotest.(check bool) "zero price clamped, finite rate" true (Float.is_finite r);
  let r2 = Utility.rate_from_price u ~max_rate:100. 0. in
  check_close "max_rate clamp" 100. r2

let prop_inv_deriv_roundtrip =
  QCheck.Test.make ~name:"U'^-1 inverts U' for alpha-fair" ~count:300
    QCheck.(triple (float_range 0.125 5.) (float_range 0.1 10.) (float_range 0.01 1e4))
    (fun (alpha, weight, x) ->
      let u = Utility.alpha_fair ~weight ~alpha () in
      Fcmp.rel_eq ~rel:1e-6 x (u.Utility.inv_deriv (u.Utility.deriv x)))

let prop_deriv_decreasing =
  QCheck.Test.make ~name:"marginal utility decreases (concavity)" ~count:300
    QCheck.(triple (float_range 0.125 5.) (float_range 0.01 100.) (float_range 1.01 10.))
    (fun (alpha, x, factor) ->
      let u = Utility.alpha_fair ~alpha () in
      u.Utility.deriv (x *. factor) < u.Utility.deriv x)

let prop_value_increasing =
  QCheck.Test.make ~name:"utility value increases in rate" ~count:300
    QCheck.(triple (float_range 0.125 5.) (float_range 0.01 100.) (float_range 1.01 10.))
    (fun (alpha, x, factor) ->
      let u = Utility.alpha_fair ~alpha () in
      u.Utility.value (x *. factor) > u.Utility.value x)

(* ------------------------------------------------------------------ *)
(* Weighted max-min: the dense test oracle (the sparse kernel is checked
   against it under "sparse") *)

let single_link_paths n = Array.make n [| 0 |]

let test_maxmin_single_link_equal () =
  let r =
    Maxmin_dense.solve ~caps:[| 10. |] ~paths:(single_link_paths 4)
      ~weights:[| 1.; 1.; 1.; 1. |]
  in
  check_rates "equal split" [| 2.5; 2.5; 2.5; 2.5 |] r.Maxmin_dense.rates;
  Array.iter (fun b -> Alcotest.(check int) "bottleneck" 0 b) r.Maxmin_dense.bottleneck

let test_maxmin_single_link_weighted () =
  let r =
    Maxmin_dense.solve ~caps:[| 10. |] ~paths:(single_link_paths 2) ~weights:[| 1.; 3. |]
  in
  check_rates "weighted split" [| 2.5; 7.5 |] r.Maxmin_dense.rates;
  check_close "fair share" 2.5 r.Maxmin_dense.fair_share.(0);
  check_close "fair share equal across flows" r.Maxmin_dense.fair_share.(0)
    r.Maxmin_dense.fair_share.(1)

let test_maxmin_two_bottlenecks () =
  (* l0: cap 10 (flows A, B); l1: cap 4 (flows A, C); equal weights.
     A and C freeze at 2 on l1; B then takes 8 on l0. *)
  let paths = [| [| 0; 1 |]; [| 0 |]; [| 1 |] |] in
  let r = Maxmin_dense.solve ~caps:[| 10.; 4. |] ~paths ~weights:[| 1.; 1.; 1. |] in
  check_rates "multi-bottleneck" [| 2.; 8.; 2. |] r.Maxmin_dense.rates;
  Alcotest.(check int) "A bottleneck is l1" 1 r.Maxmin_dense.bottleneck.(0);
  Alcotest.(check int) "B bottleneck is l0" 0 r.Maxmin_dense.bottleneck.(1)

let test_maxmin_parking_lot () =
  (* 3 chain links cap 9; long flow over all, one local flow per link. *)
  let paths = [| [| 0; 1; 2 |]; [| 0 |]; [| 1 |]; [| 2 |] |] in
  let r =
    Maxmin_dense.solve ~caps:[| 9.; 9.; 9. |] ~paths ~weights:[| 1.; 1.; 1.; 1. |]
  in
  check_rates "parking lot" [| 4.5; 4.5; 4.5; 4.5 |] r.Maxmin_dense.rates

let test_maxmin_validation () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Maxmin_dense.solve: non-positive weight") (fun () ->
      ignore (Maxmin_dense.solve ~caps:[| 1. |] ~paths:(single_link_paths 1) ~weights:[| 0. |]));
  Alcotest.check_raises "empty path" (Invalid_argument "Maxmin_dense.solve: empty path")
    (fun () -> ignore (Maxmin_dense.solve ~caps:[| 1. |] ~paths:[| [||] |] ~weights:[| 1. |]))

let random_single_path_instance rng =
  let n_links = 2 + Rng.int rng 4 in
  let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
  let n_flows = 2 + Rng.int rng 5 in
  let paths =
    Array.init n_flows (fun _ ->
        let len = 1 + Rng.int rng (min 3 n_links) in
        let perm = Rng.permutation rng n_links in
        Array.sub perm 0 len)
  in
  let weights = Array.init n_flows (fun _ -> Rng.uniform rng ~lo:0.2 ~hi:5.) in
  (caps, paths, weights)

let prop_maxmin_is_maxmin =
  QCheck.Test.make ~name:"water-filling output satisfies max-min conditions"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let caps, paths, weights = random_single_path_instance rng in
      let r = Maxmin_dense.solve ~caps ~paths ~weights in
      Maxmin_dense.is_maxmin ~caps ~paths ~weights r.Maxmin_dense.rates)

let prop_maxmin_feasible_and_positive =
  QCheck.Test.make ~name:"water-filling is feasible with positive rates"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let caps, paths, weights = random_single_path_instance rng in
      let r = Maxmin_dense.solve ~caps ~paths ~weights in
      let loads = Array.make (Array.length caps) 0. in
      Array.iteri
        (fun i p -> Array.iter (fun l -> loads.(l) <- loads.(l) +. r.Maxmin_dense.rates.(i)) p)
        paths;
      Array.for_all (fun x -> x > 0.) r.Maxmin_dense.rates
      && Array.for_all2 (fun load cap -> load <= cap *. (1. +. 1e-9)) loads caps)

let prop_maxmin_scale_invariant =
  QCheck.Test.make ~name:"scaling all weights leaves rates unchanged" ~count:200
    QCheck.(pair small_int (float_range 0.1 100.))
    (fun (seed, k) ->
      let rng = Rng.create ~seed in
      let caps, paths, weights = random_single_path_instance rng in
      let r1 = Maxmin_dense.solve ~caps ~paths ~weights in
      let r2 = Maxmin_dense.solve ~caps ~paths ~weights:(Array.map (fun w -> w *. k) weights) in
      Array.for_all2 (Fcmp.rel_eq ~rel:1e-6) r1.Maxmin_dense.rates r2.Maxmin_dense.rates)

(* ------------------------------------------------------------------ *)
(* Bandwidth functions *)

let test_bf_fig2_shape () =
  let b1 = Bf.fig2_flow1 () and b2 = Bf.fig2_flow2 () in
  check_close "B1(2) = 10G" (Units.gbps 10.) (Bf.bandwidth b1 2.);
  check_close "B1(2.5) = 15G" (Units.gbps 15.) (Bf.bandwidth b1 2.5);
  Alcotest.(check bool) "B2(2) ~ 0" true (Bf.bandwidth b2 2. < Units.mbps 1.);
  check_close ~rel:1e-3 "B2(2.5) = 10G" (Units.gbps 10.) (Bf.bandwidth b2 2.5)

let test_bf_fig2_allocation_10g () =
  let bfs = [| Bf.fig2_flow1 (); Bf.fig2_flow2 () |] in
  let rates, f = Bf.single_link_allocation ~bfs ~capacity:(Units.gbps 10.) in
  (* Flow 1 has strict priority on the first 10 Gbps. *)
  check_close ~rel:1e-3 "flow1 gets everything" (Units.gbps 10.) rates.(0);
  Alcotest.(check bool) "flow2 gets ~nothing" true (rates.(1) < Units.mbps 10.);
  Alcotest.(check bool) "fair share ~2" true (Float.abs (f -. 2.) < 0.01)

let test_bf_fig2_allocation_25g () =
  let bfs = [| Bf.fig2_flow1 (); Bf.fig2_flow2 () |] in
  let rates, f = Bf.single_link_allocation ~bfs ~capacity:(Units.gbps 25.) in
  check_close ~rel:1e-3 "flow1 15G" (Units.gbps 15.) rates.(0);
  check_close ~rel:1e-3 "flow2 10G" (Units.gbps 10.) rates.(1);
  Alcotest.(check bool) "fair share ~2.5" true (Float.abs (f -. 2.5) < 0.01)

let test_bf_fair_share_roundtrip () =
  let b1 = Bf.fig2_flow1 () in
  List.iter
    (fun f -> check_close ~rel:1e-9 "F(B(f)) = f" f (Bf.fair_share b1 (Bf.bandwidth b1 f)))
    [ 0.5; 1.; 2.; 2.25; 3. ]

let test_bf_create_requires_origin () =
  Alcotest.check_raises "must start at origin"
    (Invalid_argument "Bandwidth_function.create: curve must start at (0, 0)")
    (fun () -> ignore (Bf.create (Piecewise.of_points [ (1., 0.); (2., 1.) ])))

let test_bf_utility_consistency () =
  let b1 = Bf.fig2_flow1 () in
  let u = Bf.utility b1 ~alpha:5. in
  (* inv_deriv inverts deriv on the rising part of the curve. *)
  List.iter
    (fun x ->
      check_close ~rel:1e-6 "U'^-1(U'(x)) = x" x (u.Utility.inv_deriv (u.Utility.deriv x)))
    [ Units.gbps 2.; Units.gbps 10.; Units.gbps 14. ]

let test_bf_waterfill_matches_single_link () =
  let bfs = [| Bf.fig2_flow1 (); Bf.fig2_flow2 () |] in
  let cap = Units.gbps 25. in
  let expected, _ = Bf.single_link_allocation ~bfs ~capacity:cap in
  let got = Bf.waterfill ~caps:[| cap |] ~paths:[| [| 0 |]; [| 0 |] |] ~bfs in
  check_rates ~rel:1e-3 "waterfill single link" expected got

let test_bf_waterfill_two_links () =
  (* Flow 1 on link 0 only (cap 10G), flow 2 on both links (link 1 cap 4G),
     both with the identity bandwidth function B(f) = f Gbps:
     flow 2 freezes at 4G on link 1; flow 1 continues to 6G... but link 0
     has 10G so flow 1 freezes at 6G only if link 0 saturates: 4 + 6 = 10. *)
  let identity =
    Bf.create (Piecewise.of_points [ (0., 0.); (100., Units.gbps 100.) ])
  in
  let got =
    Bf.waterfill
      ~caps:[| Units.gbps 10.; Units.gbps 4. |]
      ~paths:[| [| 0 |]; [| 0; 1 |] |]
      ~bfs:[| identity; identity |]
  in
  check_rates ~rel:1e-3 "two-link waterfill" [| Units.gbps 6.; Units.gbps 4. |] got

(* ------------------------------------------------------------------ *)
(* Oracle (dual) against closed forms *)

let single_link_problem ~cap utilities =
  Problem.create ~caps:[| cap |]
    ~groups:(List.map (fun u -> Problem.single_path u [| 0 |]) utilities)

let test_oracle_dual_single_link_proportional () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u; u; u ] in
  let sol = Oracle.solve_dual p in
  check_rates ~rel:1e-4 "equal shares" [| 2.5; 2.5; 2.5; 2.5 |] sol.Oracle.rates

let test_oracle_dual_single_link_weighted () =
  (* Weighted proportional fairness on one link: x_i = w_i / sum_w * C. *)
  let us =
    [ Utility.proportional_fair ~weight:1. ();
      Utility.proportional_fair ~weight:2. ();
      Utility.proportional_fair ~weight:5. () ]
  in
  let p = single_link_problem ~cap:16. us in
  let sol = Oracle.solve_dual p in
  check_rates ~rel:1e-4 "weighted shares" [| 2.; 4.; 10. |] sol.Oracle.rates

let parking_lot_problem ~alpha ~cap =
  (* Flow 0 over links 0 and 1; flow 1 on link 0; flow 2 on link 1. *)
  let u = Utility.alpha_fair ~alpha () in
  Problem.create ~caps:[| cap; cap |]
    ~groups:
      [
        Problem.single_path u [| 0; 1 |];
        Problem.single_path u [| 0 |];
        Problem.single_path u [| 1 |];
      ]

let test_oracle_dual_parking_lot_alpha1 () =
  (* alpha = 1: x0 = C/3, x1 = x2 = 2C/3. *)
  let p = parking_lot_problem ~alpha:1. ~cap:9. in
  let sol = Oracle.solve_dual p in
  check_rates ~rel:1e-4 "proportional parking lot" [| 3.; 6.; 6. |] sol.Oracle.rates

let test_oracle_dual_parking_lot_alpha2 () =
  (* alpha = 2: with y = x1 = x2 and x0 = y / sqrt 2, x0 + y = C. *)
  let cap = 10. in
  let p = parking_lot_problem ~alpha:2. ~cap in
  let sol = Oracle.solve_dual p in
  let y = cap /. (1. +. (1. /. sqrt 2.)) in
  check_rates ~rel:1e-4 "alpha=2 parking lot" [| y /. sqrt 2.; y; y |] sol.Oracle.rates

let test_oracle_dual_rejects_multipath () =
  let u = Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 1.; 1. |]
      ~groups:[ { Problem.utility = u; paths = [ [| 0 |]; [| 1 |] ] } ]
  in
  Alcotest.check_raises "multipath rejected"
    (Invalid_argument "Oracle.solve_dual: multipath problems are not supported")
    (fun () -> ignore (Oracle.solve_dual p))

let test_oracle_dual_kkt_certified () =
  let p = parking_lot_problem ~alpha:0.5 ~cap:4. in
  let sol = Oracle.solve_dual p in
  Alcotest.(check bool) "kkt residual small" true (Kkt.worst sol.Oracle.kkt < 1e-8)

(* ------------------------------------------------------------------ *)
(* xWI fixed point *)

let test_xwi_single_link_proportional () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let state = Xwi.init p in
  let run = Xwi.run_to_fixpoint ~tol:1e-12 p Xwi.default_params state in
  Alcotest.(check bool) "converged" true run.Xwi.converged;
  check_rates ~rel:1e-6 "equal shares" [| 5.; 5. |] state.Xwi.rates

let test_xwi_matches_dual_on_parking_lot () =
  List.iter
    (fun alpha ->
      let p = parking_lot_problem ~alpha ~cap:8. in
      let dual = Oracle.solve_dual p in
      let sol = Oracle.solve ~tol:1e-5 p in
      check_rates ~rel:1e-3
        (Printf.sprintf "alpha=%g" alpha)
        dual.Oracle.rates sol.Oracle.rates)
    [ 0.5; 1.; 2. ]

let test_xwi_prices_drive_weights () =
  (* At the fixed point, weights equal the optimal rates (paper §4.2). *)
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u; u; u ] in
  let state = Xwi.init p in
  ignore (Xwi.run_to_fixpoint ~tol:1e-13 p Xwi.default_params state);
  Array.iteri
    (fun i w -> check_close ~rel:1e-5 (Printf.sprintf "w%d = x%d" i i) state.Xwi.rates.(i) w)
    state.Xwi.weights

let test_xwi_multipath_pooling () =
  (* Two links of capacity 4 and 6; one multipath group with a sub-flow on
     each and log utility of the total; plus one single-path competitor on
     link 0 with log utility. NUM: maximize ln(y) + ln(z) with
     y = x_a + x_b, x_a + z <= 4, x_b <= 6. Optimum: pooled flow saturates
     link 1 (x_b = 6); on link 0, ln(y)' = 1/(6 + x_a) < ln(z)' = 1/z at
     equal split, so z > x_a. Solving: p0 = 1/z = 1/(6 + x_a), with
     x_a + z = 4 -> x_a = -1? Infeasible: x_a = 0 (unused sub-flow),
     z = 4, y = 6, with p0 = 1/4 > 1/6 = U'(y): KKT holds with the unused
     sub-flow's path price exceeding the group's marginal utility. *)
  let pool =
    { Problem.utility = Utility.proportional_fair (); paths = [ [| 0 |]; [| 1 |] ] }
  in
  let solo = Problem.single_path (Utility.proportional_fair ()) [| 0 |] in
  let p = Problem.create ~caps:[| 4.; 6. |] ~groups:[ pool; solo ] in
  let sol = Oracle.solve ~tol:1e-4 p in
  check_close ~rel:1e-3 "pooled total" 6. sol.Oracle.group_rates.(0);
  check_close ~rel:1e-3 "solo" 4. sol.Oracle.group_rates.(1);
  Alcotest.(check bool) "sub-flow a idle" true (sol.Oracle.rates.(0) < 0.05)

let prop_xwi_matches_dual_random =
  QCheck.Test.make ~name:"xWI fixed point matches dual solver on random problems"
    ~count:25 QCheck.(pair small_int (0 -- 2))
    (fun (seed, alpha_idx) ->
      let alpha = [| 0.5; 1.; 2. |].(alpha_idx) in
      let rng = Rng.create ~seed:(seed + 1000) in
      let caps, paths, weights = random_single_path_instance rng in
      let groups =
        Array.to_list
          (Array.map2
             (fun path w ->
               Problem.single_path (Utility.alpha_fair ~weight:w ~alpha ()) path)
             paths weights)
      in
      let p = Problem.create ~caps ~groups in
      match Oracle.solve_dual ~tol:1e-7 p with
      | exception Oracle.Did_not_converge _ -> QCheck.assume_fail ()
      | dual -> (
        match Oracle.solve ~tol:1e-5 p with
        | exception Oracle.Did_not_converge _ -> false
        | sol ->
          Array.for_all2
            (fun a b -> Fcmp.rel_eq ~rel:5e-3 a b)
            dual.Oracle.rates sol.Oracle.rates))

let prop_xwi_fixed_point_unique =
  (* The paper proves the xWI fixed point is unique; numerically: starting
     the iteration from very different price vectors must reach the same
     rates (cf. the technical report's randomized experiments). *)
  QCheck.Test.make ~name:"xWI fixed point is independent of the initial prices"
    ~count:30 QCheck.(pair small_int (1 -- 3))
    (fun (seed, scale_exp) ->
      let rng = Rng.create ~seed:(seed + 500) in
      let caps, paths, weights = random_single_path_instance rng in
      let groups =
        Array.to_list
          (Array.map2
             (fun path w ->
               Problem.single_path (Utility.alpha_fair ~weight:w ~alpha:1. ()) path)
             paths weights)
      in
      let p = Problem.create ~caps ~groups in
      let solve_from prices =
        let state = Xwi.init_with_prices p ~prices in
        ignore (Xwi.run_until_kkt ~tol:1e-8 ~max_iters:20_000 p Xwi.default_params state);
        state.Xwi.rates
      in
      let n_links = Array.length caps in
      let lo = solve_from (Array.make n_links 1e-12) in
      let hi = solve_from (Array.make n_links (10. ** float_of_int scale_exp)) in
      Array.for_all2 (fun a b -> Fcmp.rel_eq ~rel:1e-4 a b) lo hi)

let prop_multipath_oracle_kkt =
  (* Random multipath instances: the general Oracle must return solutions
     whose KKT residuals certify optimality. *)
  QCheck.Test.make ~name:"multipath oracle solutions satisfy KKT" ~count:20
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 900) in
      let n_links = 3 + Rng.int rng 3 in
      let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
      let n_groups = 2 + Rng.int rng 3 in
      let groups =
        List.init n_groups (fun _ ->
            let n_sub = 1 + Rng.int rng 2 in
            let paths =
              List.init n_sub (fun _ ->
                  let len = 1 + Rng.int rng 2 in
                  Array.sub (Rng.permutation rng n_links) 0 len)
            in
            { Problem.utility = Utility.proportional_fair (); paths })
      in
      let p = Problem.create ~caps ~groups in
      match Oracle.solve ~tol:1e-4 p with
      | sol -> Kkt.worst sol.Oracle.kkt <= 1e-4
      | exception Oracle.Did_not_converge _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* KKT checker *)

let test_kkt_detects_infeasible () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let r = Kkt.check p ~rates:[| 8.; 8. |] ~prices:[| 0.125 |] in
  Alcotest.(check bool) "overload detected" true (r.Kkt.feasibility > 0.5)

let test_kkt_detects_bad_stationarity () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  (* Feasible but prices inconsistent with rates. *)
  let r = Kkt.check p ~rates:[| 5.; 5. |] ~prices:[| 1. |] in
  Alcotest.(check bool) "stationarity violated" true (r.Kkt.stationarity > 0.5)

let test_kkt_accepts_optimum () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let r = Kkt.check p ~rates:[| 5.; 5. |] ~prices:[| 0.2 |] in
  Alcotest.(check bool) "optimal accepted" true (Kkt.worst r < 1e-9)

let test_kkt_slackness () =
  let u = Utility.proportional_fair () in
  (* Two links, flow only uses link 0; a positive price on idle link 1 must
     show up as a slackness violation. *)
  let p =
    Problem.create ~caps:[| 10.; 10. |] ~groups:[ Problem.single_path u [| 0 |] ]
  in
  let r = Kkt.check p ~rates:[| 10. |] ~prices:[| 0.1; 0.1 |] in
  Alcotest.(check bool) "slack priced link flagged" true (r.Kkt.slackness > 0.5)

(* ------------------------------------------------------------------ *)
(* Problem structure *)

let test_problem_structure () =
  let u = Utility.proportional_fair () in
  let group = { Problem.utility = u; paths = [ [| 0 |]; [| 1; 2 |] ] } in
  let solo = Problem.single_path u [| 0; 2 |] in
  let p = Problem.create ~caps:[| 1.; 2.; 3. |] ~groups:[ group; solo ] in
  Alcotest.(check int) "flows" 3 (Problem.n_flows p);
  Alcotest.(check int) "groups" 2 (Problem.n_groups p);
  Alcotest.(check bool) "not single path" false (Problem.is_single_path p);
  Alcotest.(check int) "flow 1 group" 0 (Problem.flow_group p 1);
  Alcotest.(check int) "flow 2 group" 1 (Problem.flow_group p 2);
  Alcotest.(check (array int)) "link 2 flows" [| 1; 2 |] (Problem.link_flows p 2);
  let rates = [| 1.; 2.; 4. |] in
  check_close "group rate" 3. (Problem.group_rate p ~rates 0);
  let loads = Array.make (Problem.n_links p) 0. in
  Problem.link_loads_into p ~rates loads;
  check_close "load l0" 5. loads.(0);
  check_close "load l2" 6. loads.(2);
  check_close "path price" 5. (Problem.path_price p ~prices:[| 1.; 2.; 4. |] 2);
  Alcotest.(check bool) "feasible check" false (Problem.feasible p ~rates)

let test_problem_validation () =
  let u = Utility.proportional_fair () in
  Alcotest.check_raises "empty path" (Invalid_argument "Problem.create: empty path")
    (fun () ->
      ignore (Problem.create ~caps:[| 1. |] ~groups:[ Problem.single_path u [||] ]));
  Alcotest.check_raises "bad link"
    (Invalid_argument "Problem.create: link id out of range") (fun () ->
      ignore (Problem.create ~caps:[| 1. |] ~groups:[ Problem.single_path u [| 3 |] ]))

(* ------------------------------------------------------------------ *)
(* Sparse CSR/CSC core vs the legacy reference kernels *)

module Incidence = Nf_num.Incidence
module Reference = Nf_num_reference.Reference
module Shard = Nf_util.Shard

let test_incidence_structure () =
  let u = Utility.proportional_fair () in
  let group = { Problem.utility = u; paths = [ [| 0 |]; [| 1; 2 |] ] } in
  let solo = Problem.single_path u [| 0; 2 |] in
  let p = Problem.create ~caps:[| 1.; 2.; 3. |] ~groups:[ group; solo ] in
  let inc = Problem.incidence p in
  Alcotest.(check int) "nnz" 5 inc.Incidence.nnz;
  Alcotest.(check (array int)) "row_ptr" [| 0; 1; 3; 5 |] inc.Incidence.row_ptr;
  Alcotest.(check (array int))
    "row_cols keeps path order" [| 0; 1; 2; 0; 2 |]
    (Array.sub inc.Incidence.row_cols 0 5);
  Alcotest.(check (array int)) "col_ptr" [| 0; 2; 3; 5 |] inc.Incidence.col_ptr;
  Alcotest.(check (array int))
    "col_rows ascending per link" [| 0; 2; 1; 1; 2 |]
    (Array.sub inc.Incidence.col_rows 0 5);
  Alcotest.(check (array int)) "grp_ptr" [| 0; 2; 3 |] inc.Incidence.grp_ptr;
  Alcotest.(check (array int))
    "grp_flows" [| 0; 1; 2 |]
    (Array.sub inc.Incidence.grp_flows 0 3);
  Alcotest.(check (array int))
    "group_of_flow" [| 0; 0; 1 |] inc.Incidence.group_of_flow;
  Alcotest.(check bool) "multipath => not singleton" false
    inc.Incidence.singleton;
  Alcotest.(check bool) "caps shared with the problem" true
    (inc.Incidence.caps == Problem.caps p);
  check_close "caps" 2. inc.Incidence.caps.(1)

(* Random mixed single/multipath problem with varied alpha-fair
   utilities: the adversary for the sparse-vs-reference properties. *)
let random_problem rng =
  let n_links = 2 + Rng.int rng 5 in
  let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
  let n_groups = 2 + Rng.int rng 5 in
  let groups =
    List.init n_groups (fun _ ->
        let n_sub = 1 + Rng.int rng 2 in
        let paths =
          List.init n_sub (fun _ ->
              let len = 1 + Rng.int rng (min 3 n_links) in
              Array.sub (Rng.permutation rng n_links) 0 len)
        in
        let alpha = [| 0.5; 1.; 2. |].(Rng.int rng 3) in
        let weight = Rng.uniform rng ~lo:0.2 ~hi:5. in
        { Problem.utility = Utility.alpha_fair ~weight ~alpha (); paths })
  in
  Problem.create ~caps ~groups

let prop_sparse_maxmin_matches_reference =
  QCheck.Test.make
    ~name:"sparse water-filling matches the legacy solver within 1e-9"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 2000) in
      let p = random_problem rng in
      let n_flows = Problem.n_flows p in
      let weights =
        Array.init n_flows (fun _ -> Rng.uniform rng ~lo:0.2 ~hi:5.)
      in
      let legacy = Reference.maxmin p ~weights in
      let inc = Problem.incidence p in
      let ws = Maxmin.sparse_workspace inc in
      let sparse = Array.make n_flows 0. in
      Maxmin.solve_sparse ws inc ~weights ~rates:sparse;
      Array.for_all2 (Fcmp.rel_eq ~rel:1e-9) legacy.Maxmin_dense.rates sparse)

let prop_sparse_step_matches_reference =
  QCheck.Test.make ~name:"sparse xWI step matches the legacy step within 1e-9"
    ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 3000) in
      let p = random_problem rng in
      let state = Xwi.init p in
      let prices = Array.copy state.Xwi.prices in
      let rates = Array.copy state.Xwi.rates in
      let weights = Array.copy state.Xwi.weights in
      let ok = ref true in
      for _ = 1 to 5 do
        Xwi.step p Xwi.default_params state;
        Reference.step p Xwi.default_params ~prices ~rates ~weights;
        ok :=
          !ok
          && Array.for_all2 (Fcmp.rel_eq ~rel:1e-9) prices state.Xwi.prices
          && Array.for_all2 (Fcmp.rel_eq ~rel:1e-9) rates state.Xwi.rates
          && Array.for_all2 (Fcmp.rel_eq ~rel:1e-9) weights state.Xwi.weights
      done;
      !ok)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The init path computes its Eq. 7 weights with the sparse kernel the
   step uses; they must be the reference weights bit for bit (multipath
   split by the equal-weight rates), and the rates the allocation those
   weights induce. *)
let prop_init_weights_match_reference =
  QCheck.Test.make
    ~name:"init_with_prices weights and rates match the reference"
    ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 6000) in
      let p = random_problem rng in
      let prices =
        Array.init (Problem.n_links p) (fun _ -> Rng.uniform rng ~lo:0.01 ~hi:2.)
      in
      let state = Xwi.init_with_prices p ~prices in
      let weights =
        Reference.flow_weights p ~prices ~prev_rates:(Xwi.equal_weight_rates p)
      in
      let rates = (Reference.maxmin p ~weights).Maxmin_dense.rates in
      bits_equal weights state.Xwi.weights
      && Array.for_all2 (Fcmp.rel_eq ~rel:1e-9) rates state.Xwi.rates)

let prop_sharded_prices_bit_identical =
  QCheck.Test.make ~name:"-j 4 price update is byte-identical to -j 1"
    ~count:40 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 4000) in
      let p = random_problem rng in
      let seq = Xwi.init p in
      Shard.with_pool ~jobs:4 (fun pool ->
          let par = Xwi.init ~pool p in
          let ok = ref true in
          for _ = 1 to 20 do
            Xwi.step p Xwi.default_params seq;
            Xwi.step p Xwi.default_params par;
            ok :=
              !ok
              && bits_equal seq.Xwi.prices par.Xwi.prices
              && bits_equal seq.Xwi.rates par.Xwi.rates
              && bits_equal seq.Xwi.weights par.Xwi.weights
          done;
          !ok))

let test_sharded_long_run_bit_identical () =
  (* One dense instance, 200 steps, every job count: the sharded price
     update must be bit-for-bit the sequential one whatever the chunking. *)
  let rng = Rng.create ~seed:99 in
  let n_links = 24 in
  let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
  let groups =
    List.init 60 (fun _ ->
        let len = 1 + Rng.int rng 4 in
        Problem.single_path
          (Utility.alpha_fair ~weight:(Rng.uniform rng ~lo:0.2 ~hi:5.) ~alpha:1. ())
          (Array.sub (Rng.permutation rng n_links) 0 len))
  in
  let p = Problem.create ~caps ~groups in
  let run jobs =
    let step_all state =
      for _ = 1 to 200 do
        Xwi.step p Xwi.default_params state
      done;
      state
    in
    if jobs = 1 then step_all (Xwi.init p)
    else Shard.with_pool ~jobs (fun pool -> step_all (Xwi.init ~pool p))
  in
  let base = run 1 in
  List.iter
    (fun jobs ->
      let s = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "prices identical at -j %d" jobs)
        true
        (bits_equal base.Xwi.prices s.Xwi.prices);
      Alcotest.(check bool)
        (Printf.sprintf "rates identical at -j %d" jobs)
        true
        (bits_equal base.Xwi.rates s.Xwi.rates))
    [ 2; 3; 4; 7 ]

(* ------------------------------------------------------------------ *)
(* Delta interface: flow churn, gid stability, capacity generations *)

let test_delta_add_remove_commit () =
  let u = Utility.proportional_fair () in
  let p = Problem.create_groups ~caps:[| 10.; 10. |] ~groups:[||] in
  Alcotest.(check int) "starts empty" 0 (Problem.n_groups p);
  let g0 = Problem.generation p in
  let a = Problem.add_group p (Problem.single_path u [| 0 |]) in
  let b = Problem.add_group p (Problem.single_path u [| 0; 1 |]) in
  let c = Problem.add_group p (Problem.single_path u [| 1 |]) in
  Alcotest.(check bool) "dirty before commit" true (Problem.dirty p);
  Problem.commit p;
  Alcotest.(check bool) "clean after commit" false (Problem.dirty p);
  Alcotest.(check bool) "generation moved" false
    (Int.equal g0 (Problem.generation p));
  Alcotest.(check int) "three groups" 3 (Problem.n_groups p);
  (* First commit assigns dense ids in insertion order. *)
  Alcotest.(check (option int)) "a dense 0" (Some 0) (Problem.group_index p a);
  Alcotest.(check int) "gid of dense 1" b (Problem.group_gid p 1);
  (* Remove the middle group: tombstone now, compaction at the next read;
     survivors keep their gids but dense ids shift down. *)
  Problem.remove_group p b;
  Alcotest.(check bool) "b no longer live" false (Problem.mem_group p b);
  Alcotest.(check int) "two groups after compaction" 2 (Problem.n_groups p);
  Alcotest.(check (option int)) "b unmapped" None (Problem.group_index p b);
  Alcotest.(check (option int)) "a keeps dense 0" (Some 0)
    (Problem.group_index p a);
  Alcotest.(check (option int)) "c compacted to dense 1" (Some 1)
    (Problem.group_index p c);
  Alcotest.(check int) "flows follow the compaction" 2 (Problem.n_flows p);
  (* A fresh add after removals gets a fresh gid, never a recycled one. *)
  let d = Problem.add_group p (Problem.single_path u [| 1 |]) in
  Alcotest.(check bool) "gids are never recycled" true
    (d <> a && d <> b && d <> c)

let test_delta_validation () =
  let u = Utility.proportional_fair () in
  let p = Problem.create_groups ~caps:[| 1. |] ~groups:[||] in
  Alcotest.check_raises "empty path"
    (Invalid_argument "Problem.add_group: empty path") (fun () ->
      ignore (Problem.add_group p (Problem.single_path u [||])));
  Alcotest.check_raises "bad link"
    (Invalid_argument "Problem.add_group: link id out of range") (fun () ->
      ignore (Problem.add_group p (Problem.single_path u [| 1 |])));
  let g = Problem.add_group p (Problem.single_path u [| 0 |]) in
  Problem.remove_group p g;
  Alcotest.check_raises "double remove"
    (Invalid_argument
       (Printf.sprintf "Problem.remove_group: gid %d already removed" g))
    (fun () -> Problem.remove_group p g);
  Alcotest.check_raises "unknown gid"
    (Invalid_argument "Problem.remove_group: unknown gid 999") (fun () ->
      Problem.remove_group p 999)

let test_delta_stale_state_guarded () =
  (* Solver state sized for an old snapshot must refuse to step once the
     topology generation moved (silent reuse would read out-of-date dense
     ids — worst case out-of-bounds writes). *)
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let state = Xwi.init p in
  ignore (Problem.add_group p (Problem.single_path u [| 0 |]));
  Problem.commit p;
  Alcotest.check_raises "stale step rejected"
    (Invalid_argument
       "Xwi_core.step: problem topology changed since init; call \
        Xwi_core.resize")
    (fun () -> Xwi.step p Xwi.default_params state);
  (* resize rebuilds against the new snapshot and is steppable again. *)
  let state = Xwi.resize p state in
  Xwi.step p Xwi.default_params state;
  Alcotest.(check int) "resized state covers the new flow" 3
    (Array.length state.Xwi.rates)

let test_delta_caps_midrun () =
  (* Figure 10's capacity-change path: converge, change a link speed with
     [set_cap] mid-run, keep stepping the *same* state (capacity changes
     are not topology changes — no resize), and the allocation must track
     the new capacity. *)
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let state = Xwi.init p in
  let run = Xwi.run_until_kkt ~tol:1e-9 ~check_every:1 p Xwi.default_params state in
  Alcotest.(check bool) "converged at 10G" true run.Xwi.converged;
  check_rates ~rel:1e-6 "equal shares of 10" [| 5.; 5. |] state.Xwi.rates;
  let topo_gen = Problem.generation p in
  Problem.set_cap p 0 20.;
  Alcotest.(check bool) "topology generation unchanged" true
    (Int.equal topo_gen (Problem.generation p));
  let run = Xwi.run_until_kkt ~tol:1e-9 ~check_every:1 p Xwi.default_params state in
  Alcotest.(check bool) "re-converged at 20G" true run.Xwi.converged;
  check_rates ~rel:1e-6 "equal shares of 20" [| 10.; 10. |] state.Xwi.rates;
  Alcotest.(check bool) "warm cap change re-solve satisfies KKT" true
    (Kkt.worst (Kkt.check p ~rates:state.Xwi.rates ~prices:state.Xwi.prices)
    < 1e-8)

let test_delta_raw_cap_write () =
  (* The incidence shares [Problem.caps], so a raw write with no
     announcement is what the next solve sees. *)
  let u = Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 10.; 10. |]
      ~groups:[ Problem.single_path u [| 0 |]; Problem.single_path u [| 0; 1 |] ]
  in
  let state = Xwi.init p in
  ignore (Xwi.run_until_kkt ~tol:1e-9 ~check_every:1 p Xwi.default_params state);
  check_rates ~rel:1e-6 "equal shares of 10" [| 5.; 5. |] state.Xwi.rates;
  (Problem.caps p).(1) <- 2.;
  let run = Xwi.run_until_kkt ~tol:1e-9 ~check_every:1 p Xwi.default_params state in
  Alcotest.(check bool) "re-converged" true run.Xwi.converged;
  check_rates ~rel:1e-6 "long flow capped by the shrunk link" [| 8.; 2. |]
    state.Xwi.rates

(* A random single-link-id path over the problem's links, for churn
   properties. *)
let random_path rng ~n_links =
  let len = 1 + Rng.int rng (min 3 n_links) in
  Array.sub (Rng.permutation rng n_links) 0 len

let prop_warm_churn_matches_cold =
  QCheck.Test.make
    ~name:"add -> warm solve -> remove -> warm solve lands on the cold fixpoint"
    ~count:20 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 5000) in
      let p = random_problem rng in
      (* Some random instances have a KKT-residual floor around 1e-8
         (finite-precision xWI), so don't demand convergence at this
         tolerance — run to the floor and compare the allocations. *)
      let tol = 1e-10 in
      let solve st = Xwi.run_until_kkt ~tol ~check_every:1 p Xwi.default_params st in
      let state = ref (Xwi.init p) in
      ignore (solve !state);
      (* Arrival: a fresh proportional-fair flow on a random path. *)
      let gid =
        Problem.add_group p
          (Problem.single_path (Utility.proportional_fair ())
             (random_path rng ~n_links:(Problem.n_links p)))
      in
      Problem.commit p;
      state := Xwi.resize p !state;
      ignore (solve !state);
      (* Departure of the same flow: the final problem is the original. *)
      Problem.remove_group p gid;
      Problem.commit p;
      state := Xwi.resize p !state;
      let warm_run = solve !state in
      let cold_state = Xwi.init p in
      let cold_run = solve cold_state in
      (* Compare *group* totals: multipath sub-flow splits are not unique
         at the optimum (only the group rate is), so per-flow rates of two
         KKT-certified solutions may legitimately differ. Converged
         instances must agree to 1e-9; floor-limited ones (capped at the
         instance's residual floor) get floor-scale slop. *)
      let rel =
        if warm_run.Xwi.converged && cold_run.Xwi.converged then 1e-9 else 1e-8
      in
      let n_groups = Problem.n_groups p in
      let warm_g = Array.make n_groups 0. in
      let cold_g = Array.make n_groups 0. in
      Problem.group_rates_into p ~rates:!state.Xwi.rates warm_g;
      Problem.group_rates_into p ~rates:cold_state.Xwi.rates cold_g;
      Array.for_all2 (Fcmp.rel_eq ~rel) warm_g cold_g)

let prop_kkt_after_random_churn =
  QCheck.Test.make
    ~name:"warm re-solves satisfy KKT across randomized churn" ~count:15
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 6000) in
      let p = random_problem rng in
      let n_links = Problem.n_links p in
      (* Initial groups get gids 0 .. n-1 (mli contract). *)
      let live = ref (List.init (Problem.n_groups p) Fun.id) in
      (* The always-on service's tolerance: comfortably above any random
         instance's KKT-residual floor, so converged must hold. *)
      let tol = 1e-6 in
      let state = ref (Xwi.init p) in
      ignore (Xwi.run_until_kkt ~tol ~check_every:1 p Xwi.default_params !state);
      let ok = ref true in
      for _ = 1 to 6 do
        (if List.length !live <= 1 || Rng.int rng 2 = 0 then
           let gid =
             Problem.add_group p
               (Problem.single_path (Utility.proportional_fair ())
                  (random_path rng ~n_links))
           in
           live := gid :: !live
         else begin
           let victim = List.nth !live (Rng.int rng (List.length !live)) in
           Problem.remove_group p victim;
           live := List.filter (fun g -> g <> victim) !live
         end);
        Problem.commit p;
        state := Xwi.resize p !state;
        let run =
          Xwi.run_until_kkt ~tol ~check_every:1 p Xwi.default_params !state
        in
        let worst =
          Kkt.worst
            (Kkt.check p ~rates:!state.Xwi.rates ~prices:!state.Xwi.prices)
        in
        ok := !ok && run.Xwi.converged && worst <= tol
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Utility fast paths, sparse solve statistics, and solver diagnostics *)

module Diag = Nf_num.Diag
module Metrics = Nf_util.Metrics
module Trace = Nf_util.Trace

let test_utility_fast_paths_bitwise () =
  (* The shape-dispatch evaluators must be *bit-identical* to the closure
     fields: xWI's sparse hot path uses the fast forms while the legacy
     dense path keeps the closures, and the repo's determinism guarantee
     (-j N byte-identical to -j 1, dense matches sparse) rests on the two
     agreeing exactly. *)
  let utilities =
    [
      Utility.proportional_fair ();
      Utility.alpha_fair ~weight:3.5 ~alpha:1. ();
      Utility.alpha_fair ~weight:2. ~alpha:2. ();
      Utility.alpha_fair ~weight:0.25 ~alpha:0.5 ();
      Utility.fct ~size:1e6 ~eps:0.125;
      Utility.make ~name:"custom" ~value:sqrt
        ~deriv:(fun x -> 0.5 /. sqrt x)
        ~inv_deriv:(fun p -> 0.25 /. (p *. p));
    ]
  in
  let points = [ 0.; 1e-30; 1e-9; 0.5; 1.; 3.25; 1e9; 1e300 ] in
  let bits = Int64.bits_of_float in
  List.iter
    (fun u ->
      List.iter
        (fun x ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: deriv_fast(%g)" u.Utility.name x)
            (bits (u.Utility.deriv x))
            (bits (Utility.deriv_fast u x));
          Alcotest.(check int64)
            (Printf.sprintf "%s: rate_from_price_fast(%g)" u.Utility.name x)
            (bits (Utility.rate_from_price u x))
            (bits (Utility.rate_from_price_fast u x)))
        points)
    utilities

let test_maxmin_sparse_stats () =
  (* Parking lot: one long flow over both links, one short per link. Both
     links saturate; stats from the last solve must reflect that. *)
  let caps = [| 1.; 1. |] in
  let paths = [| [| 0; 1 |]; [| 0 |]; [| 1 |] |] in
  let inc =
    Incidence.create ~caps ~paths ~group_of_flow:[| 0; 1; 2 |] ~n_groups:3
  in
  let weights = [| 1.; 1.; 1. |] in
  let rates = Array.make 3 0. in
  let ws = Maxmin.sparse_workspace inc in
  Maxmin.solve_sparse ws inc ~weights ~rates;
  Alcotest.(check bool) "rounds >= 1" true (Maxmin.sparse_rounds ws >= 1);
  Alcotest.(check int) "both links saturated" 2
    (Maxmin.sparse_saturated_links ws);
  Alcotest.(check bool) "final level positive" true
    (Maxmin.sparse_level ws > 0.)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let diag_problem () =
  (* Two-link parking lot with proportional fairness: converges in tens
     of iterations at the default tolerance, never in three. *)
  let caps = [| 1.; 1. |] in
  let groups =
    [
      Problem.single_path (Utility.proportional_fair ()) [| 0; 1 |];
      Problem.single_path (Utility.proportional_fair ()) [| 0 |];
      Problem.single_path (Utility.proportional_fair ()) [| 1 |];
    ]
  in
  Problem.create ~caps ~groups

let test_diag_observe_and_report () =
  let p = diag_problem () in
  let state = Xwi.init p in
  let d = Diag.create ~capacity:8 ~n_links:2 ~n_flows:3 () in
  Xwi.set_diag state (Some d);
  let run = Xwi.run_to_fixpoint ~tol:1e-10 p Xwi.default_params state in
  Alcotest.(check bool) "converged" true run.Xwi.converged;
  Alcotest.(check int) "every iteration observed" run.Xwi.iterations
    (Diag.iterations d);
  let samples = Diag.samples d in
  Alcotest.(check bool) "ring non-empty" true (samples <> []);
  Alcotest.(check bool) "ring bounded by capacity" true
    (List.length samples <= 8);
  List.iter
    (fun s ->
      Alcotest.(check bool) "residual finite and non-negative" true
        (s.Diag.s_residual >= 0. && Float.is_finite s.Diag.s_residual);
      Alcotest.(check bool) "wf rounds positive" true (s.Diag.s_wf_rounds >= 1);
      Alcotest.(check bool) "saturated links in range" true
        (s.Diag.s_wf_saturated >= 0 && s.Diag.s_wf_saturated <= 2))
    samples;
  (let iters = List.map (fun s -> s.Diag.s_iter) samples in
   Alcotest.(check (list int)) "samples oldest-first" (List.sort compare iters)
     iters);
  let r = Diag.report d in
  Alcotest.(check int) "report iterations" run.Xwi.iterations
    r.Diag.r_iterations;
  Alcotest.(check bool) "final residual below tol" true
    (r.Diag.r_final_residual <= 1e-10);
  (* The ε ladder tightens left to right, so first-hit iterations must be
     non-decreasing (ignoring never-reached entries). *)
  let prev = ref 0 in
  Array.iter
    (fun (eps, it) ->
      if it >= 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "eps %g reached no earlier than looser eps" eps)
          true (it >= !prev);
        prev := it
      end)
    r.Diag.r_to_eps;
  Alcotest.(check bool) "tightest default eps reached" true
    (let n = Array.length r.Diag.r_to_eps in
     n > 0 && snd r.Diag.r_to_eps.(n - 1) >= 1);
  List.iter
    (fun (l, delta) ->
      Alcotest.(check bool) "worst link id in range" true (l >= 0 && l < 2);
      Alcotest.(check bool) "worst link delta non-negative" true (delta >= 0.))
    (Diag.worst_links d);
  let json = Nf_util.Json.to_string (Diag.report_to_json r) in
  Alcotest.(check bool) "report json mentions iterations" true
    (contains ~needle:"\"iterations\"" json)

let test_diag_postmortem_on_nonconvergence () =
  let dir =
    let f = Filename.temp_file "nf_diag_test" "" in
    Sys.remove f;
    Sys.mkdir f 0o700;
    f
  in
  let sink = Trace.make ~kinds:[ Trace.XwiNonconverged ] () in
  let saved = Trace.default () in
  Trace.set_default sink;
  Diag.configure (Some (Diag.default_config ~dir));
  let nonconverged =
    Metrics.counter Metrics.global "nf_xwi_nonconverged_total"
  in
  let before = Metrics.counter_value nonconverged in
  Fun.protect
    ~finally:(fun () ->
      Diag.configure None;
      Trace.set_default saved)
    (fun () ->
      let p = diag_problem () in
      let state = Xwi.init p in
      Alcotest.(check bool) "diag auto-attached under config" true
        (match Xwi.diag state with Some _ -> true | None -> false);
      let run = Xwi.run_to_fixpoint ~max_iters:3 p Xwi.default_params state in
      Alcotest.(check bool) "capped run did not converge" false
        run.Xwi.converged;
      Alcotest.(check int) "nonconverged counter incremented" (before + 1)
        (Metrics.counter_value nonconverged);
      Alcotest.(check int) "one postmortem written" 1
        (Diag.postmortems_written ());
      Alcotest.(check bool) "XwiNonconverged trace event emitted" true
        (List.exists
           (fun e -> e.Trace.kind = Trace.XwiNonconverged)
           (Trace.events sink));
      let path = Filename.concat dir "xwi_postmortem_0000.jsonl" in
      Alcotest.(check bool) "postmortem file exists" true
        (Sys.file_exists path);
      let contents = read_file path in
      Alcotest.(check bool) "postmortem says non-converged" true
        (contains ~needle:"\"converged\":false" contents);
      Alcotest.(check bool) "postmortem names worst links" true
        (contains ~needle:"\"kind\":\"worst_links\"" contents);
      Alcotest.(check bool) "postmortem carries iteration samples" true
        (contains ~needle:"\"kind\":\"iter\"" contents));
  (* A second configure resets the sequence counter. *)
  Alcotest.(check int) "configure resets counter" 0
    (Diag.postmortems_written ())

let () =
  Alcotest.run "nf_num"
    [
      ( "utility",
        [
          quick "log utility" test_alpha_fair_log;
          quick "weighted alpha-fair" test_alpha_fair_weighted;
          quick "validation" test_alpha_fair_validation;
          quick "fct = weighted alpha-fair" test_fct_matches_weighted_alpha;
          quick "deadline utility (EDF)" test_deadline_utility;
          quick "remaining-size utility (SRPT)" test_fct_remaining_tracks;
          quick "price clamping" test_rate_from_price_clamps;
          qcheck prop_inv_deriv_roundtrip;
          qcheck prop_deriv_decreasing;
          qcheck prop_value_increasing;
        ] );
      ( "maxmin",
        [
          quick "single link equal" test_maxmin_single_link_equal;
          quick "single link weighted" test_maxmin_single_link_weighted;
          quick "two bottlenecks" test_maxmin_two_bottlenecks;
          quick "parking lot" test_maxmin_parking_lot;
          quick "validation" test_maxmin_validation;
          qcheck prop_maxmin_is_maxmin;
          qcheck prop_maxmin_feasible_and_positive;
          qcheck prop_maxmin_scale_invariant;
        ] );
      ( "bandwidth_function",
        [
          quick "fig2 curves" test_bf_fig2_shape;
          quick "fig2 allocation at 10G" test_bf_fig2_allocation_10g;
          quick "fig2 allocation at 25G" test_bf_fig2_allocation_25g;
          quick "fair-share roundtrip" test_bf_fair_share_roundtrip;
          quick "origin required" test_bf_create_requires_origin;
          quick "utility consistency" test_bf_utility_consistency;
          quick "waterfill matches single link" test_bf_waterfill_matches_single_link;
          quick "waterfill two links" test_bf_waterfill_two_links;
        ] );
      ( "oracle",
        [
          quick "single link proportional" test_oracle_dual_single_link_proportional;
          quick "single link weighted" test_oracle_dual_single_link_weighted;
          quick "parking lot alpha=1" test_oracle_dual_parking_lot_alpha1;
          quick "parking lot alpha=2" test_oracle_dual_parking_lot_alpha2;
          quick "multipath rejected" test_oracle_dual_rejects_multipath;
          quick "kkt certified" test_oracle_dual_kkt_certified;
        ] );
      ( "xwi",
        [
          quick "single link proportional" test_xwi_single_link_proportional;
          quick "matches dual on parking lot" test_xwi_matches_dual_on_parking_lot;
          quick "fixed-point weights equal rates" test_xwi_prices_drive_weights;
          quick "multipath pooling" test_xwi_multipath_pooling;
          slow "matches dual on random problems" (fun () ->
              match
                QCheck.Test.check_exn prop_xwi_matches_dual_random
              with
              | () -> ()
              | exception QCheck.Test.Test_fail (_, _) ->
                Alcotest.fail "random xWI/dual mismatch");
          qcheck prop_xwi_fixed_point_unique;
          qcheck prop_multipath_oracle_kkt;
        ] );
      ( "kkt",
        [
          quick "detects infeasible" test_kkt_detects_infeasible;
          quick "detects bad stationarity" test_kkt_detects_bad_stationarity;
          quick "accepts optimum" test_kkt_accepts_optimum;
          quick "detects slackness violation" test_kkt_slackness;
        ] );
      ( "problem",
        [
          quick "structure" test_problem_structure;
          quick "validation" test_problem_validation;
        ] );
      ( "delta",
        [
          quick "add/remove/commit, gid stability" test_delta_add_remove_commit;
          quick "validation" test_delta_validation;
          quick "stale solver state guarded" test_delta_stale_state_guarded;
          quick "capacity change mid-run (Fig. 10 path)" test_delta_caps_midrun;
          qcheck prop_warm_churn_matches_cold;
          qcheck prop_kkt_after_random_churn;
          quick "raw capacity write seen by the next solve" test_delta_raw_cap_write;
        ] );
      ( "sparse",
        [
          quick "incidence structure" test_incidence_structure;
          qcheck prop_sparse_maxmin_matches_reference;
          qcheck prop_sparse_step_matches_reference;
          qcheck prop_sharded_prices_bit_identical;
          quick "long-run shard byte-identity" test_sharded_long_run_bit_identical;
          qcheck prop_init_weights_match_reference;
        ] );
      ( "diag",
        [
          quick "utility fast paths bitwise" test_utility_fast_paths_bitwise;
          quick "sparse maxmin stats" test_maxmin_sparse_stats;
          quick "observe and report" test_diag_observe_and_report;
          quick "postmortem on non-convergence"
            test_diag_postmortem_on_nonconvergence;
        ] );
    ]
