(* fluid-cold: a fixed, seeded set of cold NUM solves — each a k=4 fat
   tree (96 links) carrying 256 ECMP-routed weighted proportional-fair
   flows (weights uniform in [0.5, 4]), the bench harness's @paper
   kernel shape. Each instance is timed from Problem.create_groups
   through Xwi_core.init and run_until_kkt ~tol:1e-6 under the default
   oracle policy (KKT check every 10 steps, cap 50k).

   Why: the paper's central number is the time to a certified optimum.
   Unlike serve-churn this loads Xwi_core and Kkt cold rather than warm,
   with a batch-built Problem and a KKT check on every 10th step only; it
   makes no Problem deltas (commit/resize stay idle) and sends nothing
   through the serve protocol.

   Instance size: a cold solve's iteration count varies 0.5-0.7 (CV)
   from instance to instance, so a run needs hundreds of instances for
   its figures to agree across seeds. On a 2-core 2.1 GHz x86 host, at
   the harness's @10x shape (k=8, 2560 flows) a solve takes ~3.5 s and
   ~8 fit in a run; at k=6 with 1000 flows ~0.85 s (30 per run; mean
   iterations still moved +-15% between seeds); at this shape ~60 ms
   (360 per run, +-3%). Mixing
   alpha in {0.5, 1, 2} across the flows of one instance is not used:
   on the @10x shape it did not reach KKT 1e-6 (residual ~8e12 after
   3000 steps, no convergence within 150 s). *)

open Common
module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Kkt = Nf_num.Kkt
module Maxmin = Nf_num.Maxmin
module Incidence = Nf_num.Incidence

let k = 4

let n_flows = 256

let tol = 1e-6

let check_every = 10

let max_iters = 50_000

type instances = { caps : float array; groups : Problem.group_spec array array }

(* Set-up: topology, ECMP router and the seeded pairs / utilities of
   every instance. The solver only ever sees the generated groups. *)
let generate ~seed ~count =
  let ft = Nf_topo.Builders.fat_tree ~k () in
  let topo = ft.Nf_topo.Builders.ft_topo in
  let router = Nf_topo.Routing.router topo in
  let caps =
    Array.map (fun (l : Nf_topo.Topology.link) -> l.Nf_topo.Topology.capacity)
      (Nf_topo.Topology.links topo)
  in
  let rng = Nf_util.Rng.create ~seed in
  let instance j =
    let pairs =
      Nf_workload.Traffic.random_pairs rng ~hosts:ft.Nf_topo.Builders.ft_servers
        ~n:n_flows
    in
    Array.mapi
      (fun i { Nf_workload.Traffic.src; dst } ->
        let path =
          Nf_topo.Routing.ecmp_path_fast router ~src ~dst
            ~hash:(((j * n_flows) + i) * 2654435761)
        in
        let weight = Nf_util.Rng.uniform rng ~lo:0.5 ~hi:4. in
        Problem.single_path (Nf_num.Utility.proportional_fair ~weight ()) (Array.of_list path))
      pairs
  in
  { caps; groups = Array.init count instance }

type solve = {
  wall : float;
  iterations : int;
  converged : bool;
  certified : bool;  (* independent Kkt.check <= tol and feasible *)
}

let certify problem (st : Xwi_core.state) =
  Kkt.worst (Kkt.check problem ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices)
  <= tol
  && Problem.feasible problem ~rates:st.Xwi_core.rates

(* The untraced path: exactly the public calls a user makes. *)
let solve_plain caps groups =
  let t0 = now () in
  let problem = Problem.create_groups ~caps ~groups in
  let st = Xwi_core.init problem in
  let run =
    Xwi_core.run_until_kkt ~tol ~check_every ~max_iters problem
      Xwi_core.default_params st
  in
  let wall = now () -. t0 in
  {
    wall;
    iterations = run.Xwi_core.iterations;
    converged = run.Xwi_core.converged;
    certified = certify problem st;
  }

(* Per-layer accumulators of the traced pass. *)
type probe = {
  mutable steps : int;
  mutable checks : int;
  mutable minor_words : float;  (* allocated by Xwi_core.step alone *)
  mutable rounds : int;  (* Maxmin.sparse_rounds summed over probes *)
  mutable probes : int;
}

(* The traced path: the same solve with run_until_kkt's loop unrolled in
   the bench ({Kkt.check; stop at <= tol; check_every x step}), a span
   around every public call, and a Maxmin.solve_sparse probe at the
   current weights on every check. *)
let solve_traced spans pr ~req caps groups =
  let root = Spans.open_ spans ~name:"solve" ~parent:(-1) ~req in
  let s = Spans.open_ spans ~name:"problem.create" ~parent:root ~req in
  let problem = Problem.create_groups ~caps ~groups in
  Spans.finish spans s;
  let s = Spans.open_ spans ~name:"xwi_core.init" ~parent:root ~req in
  let st = Xwi_core.init problem in
  Spans.finish spans s;
  let inc = Problem.incidence problem in
  let ws = Maxmin.sparse_workspace inc in
  let wv = Incidence.vec (Problem.n_flows problem) in
  let rv = Incidence.vec (Problem.n_flows problem) in
  let params = Xwi_core.default_params in
  let rec loop iter =
    let s = Spans.open_ spans ~name:"kkt.check" ~parent:root ~req in
    let worst =
      Kkt.worst (Kkt.check problem ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices)
    in
    Spans.finish spans s;
    pr.checks <- pr.checks + 1;
    Incidence.vec_of_array_into st.Xwi_core.weights wv;
    let s = Spans.open_ spans ~name:"maxmin.solve_sparse" ~parent:root ~req in
    Maxmin.solve_sparse ws inc ~weights:wv ~rates:rv;
    Spans.finish spans s;
    pr.rounds <- pr.rounds + Maxmin.sparse_rounds ws;
    pr.probes <- pr.probes + 1;
    if worst <= tol then (iter, true)
    else if iter >= max_iters then (iter, false)
    else begin
      for _ = 1 to Stdlib.min check_every (max_iters - iter) do
        let s = Spans.open_ spans ~name:"xwi_core.step" ~parent:root ~req in
        let w0 = Gc.minor_words () in
        Xwi_core.step problem params st;
        pr.minor_words <- pr.minor_words +. (Gc.minor_words () -. w0);
        Spans.finish spans s;
        pr.steps <- pr.steps + 1
      done;
      loop (iter + Stdlib.min check_every (max_iters - iter))
    end
  in
  let iterations, converged = loop 0 in
  Spans.finish spans root;
  {
    wall = spans.Spans.stop.(root) -. spans.Spans.start.(root);
    iterations;
    converged;
    certified = certify problem st;
  }

let traffic_of inst =
  (* Every instance loads the same fabric with the same flow count; report
     the mean over instances of links carrying >= 1 flow and of nnz. *)
  let n_links = Array.length inst.caps in
  let used = Array.make n_links false in
  let fracs = Fbuf.create () and nnzs = Fbuf.create () in
  Array.iter
    (fun groups ->
      Array.fill used 0 n_links false;
      let nnz = ref 0 in
      Array.iter
        (fun (g : Problem.group_spec) ->
          List.iter
            (fun path ->
              nnz := !nnz + Array.length path;
              Array.iter (fun l -> used.(l) <- true) path)
            g.Problem.paths)
        groups;
      let busy = Array.fold_left (fun a u -> if u then a + 1 else a) 0 used in
      Fbuf.add fracs (float_of_int busy /. float_of_int n_links);
      Fbuf.add nnzs (float_of_int !nnz))
    inst.groups;
  [
    metric "traffic.live_flows_mean" "count" (float_of_int n_flows);
    metric "traffic.active_link_frac" "frac" (mean (Fbuf.to_array fracs));
    metric "traffic.flows" "count"
      (float_of_int (n_flows * Array.length inst.groups));
    metric "traffic.nnz" "count" (mean (Fbuf.to_array nnzs));
  ]

let run ~seed ~instances ~traced ~spans_path =
  let setup_s, inst =
    timed_median 3 (fun () -> generate ~seed ~count:instances)
  in
  let pass solve =
    let t0 = now () in
    let solves = Array.mapi solve inst.groups in
    (solves, now () -. t0)
  in
  let plain, wall = pass (fun _ groups -> solve_plain inst.caps groups) in
  let peak = peak_rss_mb None in
  let failed_op s = (not s.converged) || not s.certified in
  let n = Array.length plain in
  let times = Array.map (fun s -> s.wall) plain in
  let iters = Array.map (fun s -> s.iterations) plain in
  let end_to_end =
    [
      metric "setup_s" "s" setup_s ~samples:3;
      metric "op_p50_ms" "ms" (median times *. 1e3) ~samples:n;
      metric "ops_per_s" "1/s" (float_of_int n /. wall) ~samples:n;
      metric "peak_rss_mb" "MB" peak;
    ]
  in
  let workload_metrics =
    [
      metric "setup_s" "s" setup_s ~samples:3;
      metric "solve_p50_s" "s" (median times) ~samples:n;
      metric "solve_wall_s" "s" wall ~samples:1;
      metric "peak_rss_mb" "MB" peak;
    ]
  in
  let checks =
    Array.to_list
      (Array.mapi
         (fun i s -> (Printf.sprintf "solve %d converged and re-certified (KKT <= 1e-6)" i,
                      not (failed_op s)))
         plain)
  in
  let per_layer, checks =
    if not traced then ([], checks)
    else begin
      let spans = Spans.create () in
      let pr = { steps = 0; checks = 0; minor_words = 0.; rounds = 0; probes = 0 } in
      let traced_solves, traced_wall =
        pass (fun req groups -> solve_traced spans pr ~req inst.caps groups)
      in
      Spans.write spans spans_path;
      let titers = Array.map (fun s -> s.iterations) traced_solves in
      let same = Array.length titers = Array.length iters && Array.for_all2 Int.equal titers iters in
      let us name = median (Spans.durations spans name) *. 1e6 in
      let ms name = median (Spans.durations spans name) *. 1e3 in
      (* the shares' base: solve time less the water-fill probes *)
      let solve_total = Spans.total spans "solve" -. Spans.total spans "maxmin.solve_sparse" in
      let fi = float_of_int in
      let layer =
        [
          metric "problem.create_ms" "ms" (ms "problem.create") ~samples:n;
          metric "xwi_core.init_ms" "ms" (ms "xwi_core.init") ~samples:n;
          metric "xwi_core.step_us" "us" (us "xwi_core.step") ~samples:pr.steps;
          metric "xwi_core.steps" "count" (fi pr.steps);
          metric "xwi_core.steps_p50" "count" (median (floats_of_ints titers)) ~samples:n;
          metric "xwi_core.steps_p99" "count" (percentile (floats_of_ints titers) 99.) ~samples:n;
          metric "kkt.check_us" "us" (us "kkt.check") ~samples:pr.checks;
          metric "kkt.checks" "count" (fi pr.checks);
          metric "xwi_core.step_share" "frac" (Spans.total spans "xwi_core.step" /. solve_total);
          metric "kkt.check_share" "frac" (Spans.total spans "kkt.check" /. solve_total);
          metric "gc.minor_bytes_per_step" "B/step"
            (pr.minor_words *. fi (Sys.word_size / 8) /. fi (Stdlib.max 1 pr.steps));
          metric "maxmin.solve_sparse_us" "us" (us "maxmin.solve_sparse") ~samples:pr.probes;
          metric "maxmin.rounds" "count" (fi pr.rounds /. fi (Stdlib.max 1 pr.probes))
            ~samples:pr.probes;
          metric "trace_overhead_frac" "frac" ((traced_wall /. wall) -. 1.);
        ]
      in
      ( layer @ traffic_of inst,
        checks
        @ [ ("traced solves take the untraced iteration counts", same) ]
        @ Array.to_list
            (Array.mapi
               (fun i s -> (Printf.sprintf "traced solve %d re-certified" i, not (failed_op s)))
               traced_solves) )
    end
  in
  {
    end_to_end;
    workload_metrics;
    per_layer;
    checks;
    notes =
      [
        ("instances", string_of_int n);
        ("iterations", String.concat "," (Array.to_list (Array.map string_of_int iters)));
      ];
  }
