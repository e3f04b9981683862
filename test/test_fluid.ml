(* Tests for nf_fluid: the three fluid schemes, the SRPT allocator, the
   convergence meter, and the dynamic flow-level drivers. *)

module Problem = Nf_num.Problem
module Utility = Nf_num.Utility
module Scheme = Nf_fluid.Scheme
module Convergence = Nf_fluid.Convergence
module Dynamic = Nf_fluid.Dynamic
module Srpt = Nf_fluid.Srpt
module Fcmp = Nf_util.Fcmp

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

let check_close ?(rel = 1e-6) what expected actual =
  if not (Fcmp.rel_eq ~rel expected actual) then
    Alcotest.failf "%s: expected %.8g, got %.8g" what expected actual

let pf () = Utility.proportional_fair ()

let parking_lot_problem () =
  Problem.create ~caps:[| 10e9; 10e9 |]
    ~groups:
      [
        Problem.single_path (pf ()) [| 0; 1 |];
        Problem.single_path (pf ()) [| 0 |];
        Problem.single_path (pf ()) [| 1 |];
      ]

let settle scheme n =
  for _ = 1 to n do
    scheme.Scheme.step ()
  done;
  scheme.Scheme.rates ()

(* ------------------------------------------------------------------ *)
(* Schemes *)

let test_xwi_scheme_converges () =
  let p = parking_lot_problem () in
  let s = Nf_fluid.Fluid_xwi.make p in
  let rates = settle s 150 in
  check_close ~rel:1e-4 "long" (10e9 /. 3.) rates.(0);
  check_close ~rel:1e-4 "local" (2. *. 10e9 /. 3.) rates.(1)

let test_xwi_rebind_preserves_prices () =
  let p = parking_lot_problem () in
  let s, prices = Nf_fluid.Fluid_xwi.make_with_prices p in
  ignore (settle s 150);
  let before = prices () in
  (* Rebind to the same flow population: the next allocation should
     already be (nearly) optimal because prices persist. *)
  s.Scheme.rebind (parking_lot_problem ());
  let rates = s.Scheme.rates () in
  check_close ~rel:0.02 "instant reconvergence" (10e9 /. 3.) rates.(0);
  let after = prices () in
  Array.iteri
    (fun i b -> check_close ~rel:1e-9 "price preserved" b after.(i))
    before

let test_xwi_scheme_pooled_identical () =
  (* A domain pool threaded through the scheme must not change a single
     bit of the allocation, including across a rebind. *)
  let sequential = Nf_fluid.Fluid_xwi.make (parking_lot_problem ()) in
  Nf_util.Shard.with_pool ~jobs:3 (fun pool ->
      let pooled = Nf_fluid.Fluid_xwi.make ~pool (parking_lot_problem ()) in
      let rs = settle sequential 100 and rp = settle pooled 100 in
      Array.iteri
        (fun i a ->
          Alcotest.(check bool)
            (Printf.sprintf "rate %d bit-identical" i)
            true
            (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float rp.(i))))
        rs;
      sequential.Scheme.rebind (parking_lot_problem ());
      pooled.Scheme.rebind (parking_lot_problem ());
      let rs = settle sequential 10 and rp = settle pooled 10 in
      Array.iteri
        (fun i a ->
          Alcotest.(check bool)
            (Printf.sprintf "post-rebind rate %d bit-identical" i)
            true
            (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float rp.(i))))
        rs)

let test_dgd_scheme_converges () =
  let p = parking_lot_problem () in
  let s = Nf_fluid.Fluid_dgd.make p in
  let rates = settle s 2000 in
  check_close ~rel:0.05 "long" (10e9 /. 3.) rates.(0);
  check_close ~rel:0.05 "local" (2. *. 10e9 /. 3.) rates.(1)

let test_rcp_scheme_converges () =
  let p = parking_lot_problem () in
  let s = Nf_fluid.Fluid_rcp.make ~alpha:1. p in
  let rates = settle s 2000 in
  check_close ~rel:0.08 "long" (10e9 /. 3.) rates.(0);
  check_close ~rel:0.08 "local" (2. *. 10e9 /. 3.) rates.(1)

let test_dgd_rejects_multipath () =
  let p =
    Problem.create ~caps:[| 1e9; 1e9 |]
      ~groups:[ { Problem.utility = pf (); paths = [ [| 0 |]; [| 1 |] ] } ]
  in
  Alcotest.check_raises "multipath rejected"
    (Invalid_argument "Fluid_dgd.make: multipath problems are not supported")
    (fun () -> ignore (Nf_fluid.Fluid_dgd.make p))

let test_scheme_names_and_intervals () =
  let p = parking_lot_problem () in
  Alcotest.(check string) "xwi name" "NUMFabric" (Nf_fluid.Fluid_xwi.make p).Scheme.name;
  Alcotest.(check (float 1e-9)) "xwi interval" 30e-6
    (Nf_fluid.Fluid_xwi.make p).Scheme.interval;
  Alcotest.(check (float 1e-9)) "dgd interval" 16e-6
    (Nf_fluid.Fluid_dgd.make p).Scheme.interval

(* ------------------------------------------------------------------ *)
(* SRPT *)

let test_srpt_allocate_single_link () =
  let rates =
    Srpt.allocate ~caps:[| 10e9 |]
      ~paths:[| [| 0 |]; [| 0 |]; [| 0 |] |]
      ~remaining:[| 5e6; 1e6; 3e6 |]
  in
  Alcotest.(check (array (float 1.))) "smallest remaining takes all"
    [| 0.; 10e9; 0. |] rates

let test_srpt_allocate_multi_link () =
  (* Flow 1 (smallest) occupies link 0; flow 0 (largest) is blocked on
     link 0; flow 2 uses link 1's residual. *)
  let rates =
    Srpt.allocate ~caps:[| 10e9; 4e9 |]
      ~paths:[| [| 0; 1 |]; [| 0 |]; [| 1 |] |]
      ~remaining:[| 9e6; 1e6; 3e6 |]
  in
  Alcotest.(check (array (float 1.))) "greedy by remaining size"
    [| 0.; 10e9; 4e9 |] rates

let prop_srpt_feasible =
  QCheck.Test.make ~name:"srpt allocation is always feasible" ~count:200
    QCheck.(pair small_int (2 -- 6))
    (fun (seed, n_flows) ->
      let rng = Nf_util.Rng.create ~seed in
      let n_links = 3 in
      let caps = Array.init n_links (fun _ -> Nf_util.Rng.uniform rng ~lo:1. ~hi:10.) in
      let paths =
        Array.init n_flows (fun _ ->
            let len = 1 + Nf_util.Rng.int rng 2 in
            Array.sub (Nf_util.Rng.permutation rng n_links) 0 len)
      in
      let remaining =
        Array.init n_flows (fun _ -> Nf_util.Rng.uniform rng ~lo:1e3 ~hi:1e7)
      in
      let rates = Srpt.allocate ~caps ~paths ~remaining in
      let loads = Array.make n_links 0. in
      Array.iteri
        (fun i p -> Array.iter (fun l -> loads.(l) <- loads.(l) +. rates.(i)) p)
        paths;
      Array.for_all (fun x -> x >= 0.) rates
      && Array.for_all2 (fun load cap -> load <= cap *. (1. +. 1e-9)) loads caps)

let test_srpt_scheme_observes_remaining () =
  let p =
    Problem.create ~caps:[| 10e9 |]
      ~groups:[ Problem.single_path (pf ()) [| 0 |]; Problem.single_path (pf ()) [| 0 |] ]
  in
  let s = Srpt.make p in
  s.Scheme.observe_remaining [| 5e6; 1e6 |];
  let rates = s.Scheme.rates () in
  Alcotest.(check (float 1.)) "loser starved" 0. rates.(0);
  Alcotest.(check (float 1.)) "winner full rate" 10e9 rates.(1)

(* ------------------------------------------------------------------ *)
(* Convergence meter *)

(* A synthetic scheme whose single rate approaches 1.0 geometrically. *)
let synthetic_scheme ~factor =
  let x = ref 0. in
  {
    Scheme.name = "synthetic";
    interval = 1e-3;
    step = (fun () -> x := 1. -. ((1. -. !x) *. factor));
    rates = (fun () -> [| !x |]);
    rates_view = (fun () -> [| !x |]);
    rebind = (fun _ -> ());
    observe_remaining = Scheme.nop_observe;
  }

let test_convergence_measures_entry_time () =
  let s = synthetic_scheme ~factor:0.5 in
  let criteria =
    { Convergence.within = 0.1; fraction = 1.; sustain = 3e-3; max_time = 1. }
  in
  let outcome = Convergence.measure ~criteria s ~target:[| 1. |] in
  (* 1 - 0.5^k <= 0.9 until k = 4 (0.9375): entry at iteration 4 = 4 ms. *)
  match outcome.Convergence.time with
  | Some t -> check_close ~rel:1e-9 "entry time" 4e-3 t
  | None -> Alcotest.fail "did not converge"

let test_convergence_timeout () =
  let s = synthetic_scheme ~factor:1.0 in
  (* never moves *)
  let criteria =
    { Convergence.within = 0.1; fraction = 1.; sustain = 1e-3; max_time = 20e-3 }
  in
  let outcome = Convergence.measure ~criteria s ~target:[| 1. |] in
  Alcotest.(check bool) "timed out" true (outcome.Convergence.time = None)

let test_fraction_within () =
  let target = [| 10.; 10.; 10.; 0. |] in
  let rates = [| 10.5; 8.; 10.; 0. |] in
  check_close "fraction" 0.75 (Convergence.fraction_within ~target ~within:0.1 rates)

(* ------------------------------------------------------------------ *)
(* Dynamic drivers *)

let solo_flow_spec size =
  {
    Dynamic.key = 0;
    arrival = 0.;
    size;
    path = [| 0 |];
    utility = pf ();
  }

let test_dynamic_single_flow_fct () =
  let flows = [ solo_flow_spec 1.25e6 ] in
  let r =
    Dynamic.run ~caps:[| 10e9 |]
      ~make_scheme:(fun p -> Nf_fluid.Fluid_xwi.make p)
      ~flows ()
  in
  match r.Dynamic.completions with
  | [ c ] ->
    (* 1.25 MB at 10 Gbps = 1 ms, quantized by the 30 us interval. *)
    Alcotest.(check bool) "fct near ideal" true
      (Dynamic.fct c >= 1e-3 -. 1e-9 && Dynamic.fct c < 1.1e-3);
    Alcotest.(check int) "none unfinished" 0 r.Dynamic.unfinished
  | _ -> Alcotest.fail "expected exactly one completion"

let test_dynamic_two_flows_share () =
  let flows =
    [
      solo_flow_spec 12.5e6;
      { (solo_flow_spec 12.5e6) with Dynamic.key = 1 };
    ]
  in
  let r =
    Dynamic.run ~caps:[| 10e9 |]
      ~make_scheme:(fun p -> Nf_fluid.Fluid_xwi.make p)
      ~flows ()
  in
  Alcotest.(check int) "both complete" 2 (List.length r.Dynamic.completions);
  List.iter
    (fun c ->
      (* Equal sharing: each 12.5 MB flow takes ~20 ms. *)
      Alcotest.(check bool) "shared fct" true
        (Dynamic.fct c > 18e-3 && Dynamic.fct c < 22e-3))
    r.Dynamic.completions

let test_dynamic_until_cuts_off () =
  let flows = [ solo_flow_spec 125e6 ] in
  let r =
    Dynamic.run ~caps:[| 10e9 |]
      ~make_scheme:(fun p -> Nf_fluid.Fluid_xwi.make p)
      ~flows ~until:1e-3 ()
  in
  Alcotest.(check int) "unfinished flow counted" 1 r.Dynamic.unfinished

let test_ideal_single_flow_exact () =
  let flows = [ solo_flow_spec 1.25e6 ] in
  let r = Dynamic.run_ideal ~caps:[| 10e9 |] ~flows () in
  match r.Dynamic.completions with
  | [ c ] -> check_close ~rel:1e-5 "exact fct" 1e-3 (Dynamic.fct c)
  | _ -> Alcotest.fail "expected one completion"

let test_ideal_sequential_arrivals () =
  (* Flow 0 alone for 1 ms, then shares with flow 1. With proportional
     fairness each gets 5 Gbps while both are active. *)
  let f0 = solo_flow_spec 2.5e6 in
  (* 2 ms solo, but flow 1 arrives at 1 ms *)
  let f1 = { (solo_flow_spec 1.25e6) with Dynamic.key = 1; arrival = 1e-3 } in
  let r = Dynamic.run_ideal ~caps:[| 10e9 |] ~flows:[ f0; f1 ] () in
  let fct k =
    match
      List.find_opt (fun c -> c.Dynamic.c_key = k) r.Dynamic.completions
    with
    | Some c -> Dynamic.fct c
    | None -> Alcotest.failf "flow %d missing" k
  in
  (* flow0: 1 ms solo (1.25 MB done) + shares the rest: remaining 1.25 MB at
     5 Gbps = 2 ms -> finishes at 3 ms. flow1: 1.25MB at 5G = 2 ms, done at
     3 ms simultaneously. *)
  check_close ~rel:1e-4 "flow 0 fct" 3e-3 (fct 0);
  check_close ~rel:1e-4 "flow 1 fct" 2e-3 (fct 1)

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) needle || go (i + 1)) in
  go 0

let test_ideal_uncertified_raises () =
  (* The mixed-alpha-in-bps instance (ROADMAP item 3), shrunk to a
     two-link parking lot: the alpha = 0.5 flow crosses both 10 Gbps links
     and competes with an alpha = 1 flow on one and an alpha = 2 flow on
     the other. In bps the marginal utilities differ by ~13 orders of
     magnitude, and neither the 3 000-step start nor the 20 000-step cold
     restart certifies KKT 1e-5. The driver must refuse to drain flows
     at those rates, and say which solve failed. *)
  let flow key alpha path =
    {
      Dynamic.key;
      arrival = 0.;
      size = 1.25e6;
      path;
      utility = Utility.alpha_fair ~alpha ();
    }
  in
  let flows = [ flow 0 0.5 [| 0; 1 |]; flow 1 1. [| 0 |]; flow 2 2. [| 1 |] ] in
  match Dynamic.run_ideal ~caps:[| 10e9; 10e9 |] ~flows () with
  | _ -> Alcotest.fail "uncertified rates were returned silently"
  | exception Nf_num.Oracle.Did_not_converge msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message names the caller: %s" msg)
      true
      (contains ~needle:"Dynamic.run_ideal" msg)

let test_achieved_rate () =
  let c = { Dynamic.c_key = 0; c_arrival = 1.; c_size = 1.25e6; c_finish = 2. } in
  check_close "rate = size*8/fct" 1e7 (Dynamic.achieved_rate c)

let () =
  Alcotest.run "nf_fluid"
    [
      ( "schemes",
        [
          quick "xwi converges to NUM optimum" test_xwi_scheme_converges;
          quick "xwi rebind preserves prices" test_xwi_rebind_preserves_prices;
          quick "xwi pooled bit-identical" test_xwi_scheme_pooled_identical;
          quick "dgd converges" test_dgd_scheme_converges;
          quick "rcp converges" test_rcp_scheme_converges;
          quick "dgd rejects multipath" test_dgd_rejects_multipath;
          quick "names and intervals" test_scheme_names_and_intervals;
        ] );
      ( "srpt",
        [
          quick "single link" test_srpt_allocate_single_link;
          quick "multi link" test_srpt_allocate_multi_link;
          quick "scheme observes remaining" test_srpt_scheme_observes_remaining;
          qcheck prop_srpt_feasible;
        ] );
      ( "convergence",
        [
          quick "entry time" test_convergence_measures_entry_time;
          quick "timeout" test_convergence_timeout;
          quick "fraction within" test_fraction_within;
        ] );
      ( "dynamic",
        [
          quick "single flow fct" test_dynamic_single_flow_fct;
          quick "two flows share" test_dynamic_two_flows_share;
          quick "until cuts off" test_dynamic_until_cuts_off;
          quick "ideal single flow" test_ideal_single_flow_exact;
          quick "ideal sequential arrivals" test_ideal_sequential_arrivals;
          quick "ideal uncertified solve raises" test_ideal_uncertified_raises;
          quick "achieved rate" test_achieved_rate;
        ] );
    ]
