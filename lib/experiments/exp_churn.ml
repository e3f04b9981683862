(* Churn: warm-started re-solves on a standing leaf-spine problem.

   The always-on service's core claim (ISSUE 8, ROADMAP "always-on
   allocation service"): after a flow arrival/departure, restarting xWI
   from the previous epoch's converged prices re-converges in a small
   fraction of a cold start's iterations. This experiment measures it
   deterministically: churn the paper's 128-server leaf-spine to a
   standing population (the §6.2 semi-dynamic workload's ~100 active
   flows), then for each of a series of single-flow arrivals run the
   warm re-solve *and* a from-scratch cold solve of the identical
   problem and compare iteration counts. The KKT residual of every warm
   solution is checked against the cold one's tolerance, so the speedup
   is never bought with a worse allocation. *)

module Problem = Nf_num.Problem
module Solve = Nf_num.Solve
module Scenario = Nf_serve.Scenario

type event = {
  ev_index : int;
  warm_iters : int;
  cold_iters : int;
  ratio : float;  (** warm / cold, lower is better *)
  warm_kkt : float;  (** worst KKT residual of the warm solution *)
  n_flows : int;
}

type t = {
  standing : int;  (** live groups after the churn prelude *)
  prelude_events : int;
  events : event list;
  mean_ratio : float;
  total_warm : int;
  total_cold : int;
  tol : float;
}

let kkt_tol = 1e-6

(* Both legs solve to the serve engine's stopping rule. *)
let policy =
  { Solve.caller = "Exp_churn"; tol = kkt_tol; check_every = 1; max_iters = 50_000;
    fallback_iters = 0 }

let run ?(seed = 42) ?(prelude = 300) ?(arrivals = 10) ?(target = 100) () =
  let sc = Scenario.leaf_spine ~seed () in
  let problem = Problem.create_groups ~caps:sc.Scenario.caps ~groups:[||] in
  let utility () = Nf_num.Utility.proportional_fair () in
  let rng = Nf_util.Rng.create ~seed:(seed + 1) in
  (* Live gids, swap-remove order (the same bookkeeping the serve-drive
     client uses, so the two face the same problem sequence). *)
  let live = ref (Array.make 16 0) in
  let n_live = ref 0 in
  let add path_idx =
    let gid =
      Problem.add_group problem
        (Problem.single_path (utility ()) sc.Scenario.path_pool.(path_idx))
    in
    if !n_live = Array.length !live then begin
      let grown = Array.make (2 * !n_live) 0 in
      Array.blit !live 0 grown 0 !n_live;
      live := grown
    end;
    !live.(!n_live) <- gid;
    incr n_live
  in
  let churn_step () =
    match Scenario.next_event rng sc ~live:!n_live ~target with
    | Scenario.Arrive i -> add i
    | Scenario.Depart j ->
      let gid = !live.(j) in
      !live.(j) <- !live.(!n_live - 1);
      decr n_live;
      Problem.remove_group problem gid
  in
  for _ = 1 to prelude do
    churn_step ()
  done;
  Problem.commit problem;
  let standing = Problem.n_groups problem in
  (* Converge the standing problem once; this state is the warm lineage. *)
  let state = ref (fst (Solve.run policy problem Solve.Cold)) in
  let events = ref [] in
  for k = 0 to arrivals - 1 do
    (* Force an arrival: departures shrink the problem and the acceptance
       metric is specifically "after a single flow arrival". *)
    (match Scenario.next_event rng sc ~live:0 ~target with
    | Scenario.Arrive i -> add i
    | Scenario.Depart _ -> assert false);
    Problem.commit problem;
    let warm_state, warm = Solve.run policy problem (Solve.Resume !state) in
    state := warm_state;
    let _, cold = Solve.run policy problem Solve.Cold in
    events :=
      {
        ev_index = k;
        warm_iters = warm.Solve.iterations;
        cold_iters = cold.Solve.iterations;
        ratio = float_of_int warm.Solve.iterations /. float_of_int cold.Solve.iterations;
        warm_kkt = warm.Solve.residual;
        n_flows = Problem.n_flows problem;
      }
      :: !events
  done;
  let events = List.rev !events in
  let total_warm = List.fold_left (fun a e -> a + e.warm_iters) 0 events in
  let total_cold = List.fold_left (fun a e -> a + e.cold_iters) 0 events in
  let mean_ratio =
    List.fold_left (fun a e -> a +. e.ratio) 0. events
    /. float_of_int (List.length events)
  in
  {
    standing;
    prelude_events = prelude;
    events;
    mean_ratio;
    total_warm;
    total_cold;
    tol = kkt_tol;
  }

let report t =
  Report.make
    ~title:
      "Churn: warm-started re-solve vs cold start, single flow arrivals on \
       the standing leaf-spine"
    ~columns:[ "event"; "flows"; "warm_iters"; "cold_iters"; "ratio"; "warm_kkt" ]
    ~notes:
      [
        Printf.sprintf
          "standing population: %d groups after %d churn events (target of \
           the paper's semi-dynamic workload)"
          t.standing t.prelude_events;
        Printf.sprintf
          "mean warm/cold iteration ratio %.4f (acceptance: <= 0.10); totals \
           %d warm vs %d cold"
          t.mean_ratio t.total_warm t.total_cold;
        Printf.sprintf
          "every warm solution meets the cold KKT tolerance %.0e \
           (worst residual column)"
          t.tol;
      ]
    (List.map
       (fun e ->
         [
           Report.int e.ev_index;
           Report.int e.n_flows;
           Report.int e.warm_iters;
           Report.int e.cold_iters;
           Report.float e.ratio;
           Report.float e.warm_kkt;
         ])
       t.events)
