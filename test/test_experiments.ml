(* Smoke + sanity tests for the experiment harness (lib/experiments): every
   experiment runs at a reduced scale and its headline numbers land in the
   band the paper reports (see EXPERIMENTS.md for the full-scale record). *)

module E = Nf_experiments

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let test_table1_rows () =
  let rows = E.Exp_table1.run () in
  Alcotest.(check int) "eight rows" 8 (List.length rows);
  List.iter
    (fun r ->
      Array.iter
        (fun rate ->
          if rate < 0. || rate > 26e9 then
            Alcotest.failf "%s: rate %.3g out of range" r.E.Exp_table1.objective rate)
        r.E.Exp_table1.rates)
    rows

let test_fig2_matches_paper () =
  match E.Exp_fig2.run () with
  | [ at10; at25 ] ->
    Alcotest.(check bool) "10G: flow1 takes all" true
      (at10.E.Exp_fig2.num.(0) > 9.9e9 && at10.E.Exp_fig2.num.(1) < 0.1e9);
    Alcotest.(check bool) "25G: 15/10 split" true
      (Nf_util.Fcmp.rel_eq ~rel:1e-3 15e9 at25.E.Exp_fig2.num.(0)
      && Nf_util.Fcmp.rel_eq ~rel:1e-3 10e9 at25.E.Exp_fig2.num.(1))
  | _ -> Alcotest.fail "expected two capacities"

let test_fig4a_speedup () =
  (* Tiny instance: the ordering (NUMFabric fastest) must still hold. *)
  let r = E.Exp_fig4a.run ~n_events:8 ~scale:0.25 () in
  Alcotest.(check bool) "NUMFabric faster than best gradient scheme" true
    (r.E.Exp_fig4a.speedup_median > 1.);
  List.iter
    (fun res ->
      Alcotest.(check bool)
        (res.E.Exp_fig4a.scheme ^ " mostly converges")
        true
        (Array.length res.E.Exp_fig4a.times >= 6))
    r.E.Exp_fig4a.results

let test_fig4a_packet_ordering () =
  let r = E.Exp_fig4a.run_packet ~n_events:3 () in
  let med name =
    match List.find_opt (fun x -> x.E.Exp_fig4a.scheme = name) r with
    | Some x when Array.length x.E.Exp_fig4a.times > 0 ->
      Nf_util.Stats.median x.E.Exp_fig4a.times
    | Some _ | None -> Float.nan
  in
  let nf = med "NUMFabric" and dgd = med "DGD" in
  Alcotest.(check bool) "NUMFabric converges" true (Float.is_finite nf);
  Alcotest.(check bool) "DGD converges" true (Float.is_finite dgd);
  Alcotest.(check bool) "NUMFabric faster at packet level" true (nf < dgd)

let test_fig4bc_contrast () =
  let r = E.Exp_fig4bc.run () in
  let mean sel =
    let xs = List.map sel r.E.Exp_fig4bc.epochs in
    List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let nf = mean (fun e -> e.E.Exp_fig4bc.within_fraction_numfabric) in
  let dctcp = mean (fun e -> e.E.Exp_fig4bc.within_fraction_dctcp) in
  Alcotest.(check bool) "NUMFabric locks on (>90%)" true (nf > 0.9);
  Alcotest.(check bool) "DCTCP noisy (clearly worse)" true (dctcp < nf -. 0.2)

let test_fig5_shape () =
  let r = E.Exp_fig5.run ~n_flows:250 () in
  Alcotest.(check int) "two workloads" 2 (List.length r);
  List.iter
    (fun w ->
      Alcotest.(check int)
        (w.E.Exp_fig5.workload ^ ": three schemes")
        3
        (List.length w.E.Exp_fig5.schemes))
    r;
  (* For websearch, NUMFabric's median deviation in the largest populated
     bins must be close to zero. *)
  let ws = List.hd r in
  let nf = List.hd ws.E.Exp_fig5.schemes in
  List.iter
    (fun b ->
      let lo, _ = b.E.Exp_fig5.bin in
      match b.E.Exp_fig5.box with
      | Some box when lo >= 10. ->
        Alcotest.(check bool) "median near zero beyond 10 BDP" true
          (Float.abs box.Nf_util.Stats.p50 < 0.1)
      | Some _ | None -> ())
    nf.E.Exp_fig5.per_bin

let test_fig6b_monotone () =
  let pts = E.Exp_fig6.run_interval ~n_events:6 () in
  let medians = List.map (fun p -> p.E.Exp_fig6.median) pts in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "median grows with the interval" true (increasing medians)

let test_fig6c_all_converge () =
  let pts = E.Exp_fig6.run_alpha ~n_events:6 ~alphas:[ 0.5; 1.; 2. ] () in
  List.iter
    (fun p ->
      Alcotest.(check int) "1x converges" 0 p.E.Exp_fig6.fast.E.Exp_fig6.unconverged;
      Alcotest.(check bool) "2x slower" true
        (p.E.Exp_fig6.slow.E.Exp_fig6.median
        >= p.E.Exp_fig6.fast.E.Exp_fig6.median))
    pts

let test_fig7_band () =
  let pts = E.Exp_fig7.run ~n_flows:300 ~loads:[ 0.3; 0.6 ] () in
  List.iter
    (fun p ->
      let ratio = p.E.Exp_fig7.numfabric_large /. p.E.Exp_fig7.pfabric_large in
      Alcotest.(check bool)
        (Printf.sprintf "load %.1f: NUMFabric within 40%% of pFabric (>= 5 BDP)"
           p.E.Exp_fig7.load)
        true
        (ratio > 0.95 && ratio < 1.4);
      Alcotest.(check bool) "pFabric >= ideal" true (p.E.Exp_fig7.pfabric_large >= 0.99))
    pts

let test_fig8_pooling_wins () =
  let r = E.Exp_fig8.run ~iters:150 ~max_subflows:4 () in
  let last = List.nth r.E.Exp_fig8.series 3 in
  let first = List.hd r.E.Exp_fig8.series in
  Alcotest.(check bool) "single path leaves capacity unused" true
    (first.E.Exp_fig8.total_pooling < 0.8);
  Alcotest.(check bool) "4 sub-flows with pooling > 90%" true
    (last.E.Exp_fig8.total_pooling > 0.9);
  Alcotest.(check bool) "pooling beats no pooling" true
    (last.E.Exp_fig8.total_pooling >= last.E.Exp_fig8.total_no_pooling -. 1e-6);
  (* Pooling is much fairer than single-path placement (perfectly fair by
     k = 8; at the reduced k = 4 of this smoke test a small spread remains). *)
  let spread a = a.(0) -. a.(Array.length a - 1) in
  let fp = spread r.E.Exp_fig8.fairness_pooling in
  let fs = spread r.E.Exp_fig8.fairness_single in
  Alcotest.(check bool) "pooled fairness" true (fp < 0.3 && fp < fs /. 2.)

let test_fig9_tracks_expected () =
  let r = E.Exp_fig9.run ~capacities:[ 5.; 20.; 35. ] () in
  Alcotest.(check bool) "max error below 1%" true (E.Exp_fig9.max_rel_error r < 0.01)

let test_fig10_reconverges () =
  let r = E.Exp_fig10.run () in
  let close (a, b) (c, d) =
    Nf_util.Fcmp.within_fraction ~frac:0.02 ~actual:a ~target:c
    && Nf_util.Fcmp.within_fraction ~frac:0.02 ~actual:b ~target:d
  in
  Alcotest.(check bool) "before switch" true
    (close r.E.Exp_fig10.achieved_before r.E.Exp_fig10.expected_before);
  Alcotest.(check bool) "after switch" true
    (close r.E.Exp_fig10.achieved_after r.E.Exp_fig10.expected_after)

let test_swift_validation () =
  let r = E.Exp_swift.run ~n_flows:8 ~duration:6e-3 () in
  Alcotest.(check bool) "within 6% of weighted max-min" true
    (r.E.Exp_swift.max_rel_error < 0.06)

let test_ablation_runs () =
  let r = E.Exp_ablation.run ~n_events:5 () in
  Alcotest.(check int) "beta variants" 5 (List.length r.E.Exp_ablation.beta_sweep);
  List.iter
    (fun v ->
      Alcotest.(check int) (v.E.Exp_ablation.label ^ " converges") 0
        v.E.Exp_ablation.unconverged)
    r.E.Exp_ablation.eta_sweep

let test_random_validation () =
  let stats = E.Exp_random.run ~instances_per_alpha:8 ~alphas:[ 0.5; 1.; 2. ] () in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "alpha %g: most instances converge" s.E.Exp_random.alpha)
        true
        (s.E.Exp_random.converged >= s.E.Exp_random.instances - 1);
      if s.E.Exp_random.dual_checks > 0 then
        Alcotest.(check bool) "rates match the dual solver" true
          (s.E.Exp_random.max_rate_error_vs_dual < 0.01))
    stats

let test_queues_track_dt () =
  match E.Exp_queues.run () with
  | dt3 :: dt6 :: _ ->
    Alcotest.(check bool) "queue grows with dt" true
      (dt6.E.Exp_queues.mean_pkts > dt3.E.Exp_queues.mean_pkts);
    Alcotest.(check bool) "a few packets, not a full buffer" true
      (dt6.E.Exp_queues.mean_pkts < 20.)
  | _ -> Alcotest.fail "expected dt points"

let test_fig6a_dt_extremes () =
  let pts = E.Exp_fig6.run_dt ~n_events:3 ~dts:[ 6e-6; 24e-6 ] () in
  match pts with
  | [ at6; at24 ] ->
    Alcotest.(check bool) "dt=6us converges everywhere" true
      (at6.E.Exp_fig6.unconverged = 0);
    Alcotest.(check bool) "dt=24us slower than dt=6us" true
      (at24.E.Exp_fig6.median >= at6.E.Exp_fig6.median)
  | _ -> Alcotest.fail "expected two points"

let test_records_json_labels () =
  (* Labels are arbitrary bytes: UTF-8 and control characters must come
     back from the JSON export exactly. *)
  let label = "caf\xc3\xa9 \x01\"tab\t" in
  E.Support.reset_records ();
  E.Support.keep_record ~label (Nf_sim.Record.create ());
  let json = Nf_util.Json.to_string (E.Support.records_json ()) in
  E.Support.reset_records ();
  match Nf_util.Json.parse json with
  | Error msg -> Alcotest.failf "records_json does not parse: %s" msg
  | Ok doc -> (
    match Nf_util.Json.obj_list "runs" doc with
    | Some [ run ] ->
      Alcotest.(check (option string)) "label bytes" (Some label)
        (Nf_util.Json.obj_str "label" run)
    | _ -> Alcotest.fail "expected one run")

let () =
  Alcotest.run "nf_experiments"
    [
      ( "flexibility",
        [
          quick "table1 rows sane" test_table1_rows;
          quick "fig2 matches paper" test_fig2_matches_paper;
          quick "fig9 tracks expected" test_fig9_tracks_expected;
          quick "fig10 reconverges" test_fig10_reconverges;
          slow "fig8 pooling wins" test_fig8_pooling_wins;
        ] );
      ( "convergence",
        [
          slow "fig4a speedup ordering" test_fig4a_speedup;
          slow "fig4a packet-level ordering" test_fig4a_packet_ordering;
          quick "fig4bc DCTCP vs NUMFabric" test_fig4bc_contrast;
          slow "fig5 deviation shape" test_fig5_shape;
          quick "fig6b monotone" test_fig6b_monotone;
          quick "fig6c converges" test_fig6c_all_converge;
          slow "fig6a dt extremes" test_fig6a_dt_extremes;
          slow "fig7 FCT band" test_fig7_band;
        ] );
      ( "validation",
        [
          quick "swift weighted max-min" test_swift_validation;
          slow "randomized xWI validation" test_random_validation;
          slow "queues track dt" test_queues_track_dt;
          quick "ablation harness" test_ablation_runs;
        ] );
      ("support", [ quick "record labels round-trip" test_records_json_labels ]);
    ]
