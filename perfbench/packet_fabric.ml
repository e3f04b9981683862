(* packet-fabric: Psupport.semidyn running NUMFabric alone (Swift hosts,
   STFQ switches, the xWI price engine) on fig4a-packet's 2x2x4
   leaf-spine with fig4a-packet's setup (10 ms between flow events).

   Why: most experiment time goes to the packet simulator — the engine's
   dispatch loop and Nf_sim's pkt-arrive / link-tx handlers — while the
   NUM core takes <1%. The reduced fabric is used because on the
   128-server fabric the default setup's 12-20 flows barely contend and
   the price loop does no work. This workload bypasses the serve layer
   and the Problem delta API entirely.

   A run simulates one such scenario per repetition, each with its own
   seed derived from the run's, so a run's figures average over many
   flow populations. The simulator is deterministic: the first scenario
   is run once more and must reproduce its convergence times and packet
   counters bit for bit, and the traced pass must reproduce every
   scenario's. *)

open Common
module Metrics = Nf_util.Metrics
module Profile = Nf_util.Profile
module Gcstats = Nf_util.Gcstats
module Psupport = Nf_experiments.Psupport

let n_events = 5

let setup_batches = 11

let setup_batch = 11

let build_fabric () =
  Nf_topo.Builders.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:4 ()

let setup_of ~seed =
  { (Psupport.default_setup ~seed ~n_events ()) with Psupport.event_spacing = 10e-3 }

let handler_cats = [ "pkt-arrive"; "link-tx"; "host"; "price-update"; "flow-start"; "flow-stop" ]

let metric_value name =
  Metrics.fold_values Metrics.global ~init:0. ~f:(fun acc ~id:_ ~name:n v ->
      if String.equal n name then v else acc)

type rep = {
  wall : float;
  result : Psupport.result;
  events : float;
  heap_depth : float;
  forwarded : float;
  delivered : float;
  drops : float;
  ecn : float;
  profile : (string * float) list;  (* traced: category -> seconds *)
  handler_bytes : float;  (* traced: bytes allocated inside handlers *)
}

let simulate ?spans ~ls ~setup ~traced req =
  Metrics.reset Metrics.global;
  if traced then begin
    Profile.reset ();
    Gcstats.reset ();
    Profile.set_enabled true;
    Gcstats.set_enabled true
  end;
  let span =
    Option.map (fun sp -> (sp, Spans.open_ sp ~name:"psupport.semidyn" ~parent:(-1) ~req)) spans
  in
  let t0 = now () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Profile.set_enabled false;
        Gcstats.set_enabled false)
      (fun () ->
        Psupport.semidyn ~protocol:(Nf_sim.Protocols.get "numfabric") ~setup
          ~topology:ls.Nf_topo.Builders.topo ~hosts:ls.Nf_topo.Builders.servers
          ~utility_of:(fun _ -> Nf_num.Utility.proportional_fair ())
          ())
  in
  let wall = now () -. t0 in
  Option.iter (fun (sp, i) -> Spans.finish sp i) span;
  let profile =
    if traced then List.map (fun (c, _, s) -> (c, s)) (Profile.categories ()) else []
  in
  let handler_bytes =
    if not traced then 0.
    else
      List.fold_left
        (fun acc (id, _, b) ->
          if List.mem (Profile.cat_name id) handler_cats then acc +. b else acc)
        0. (Gcstats.categories ())
  in
  {
    wall;
    result;
    events = metric_value "nf_engine_events_total";
    heap_depth = metric_value "nf_engine_heap_depth_max";
    forwarded = metric_value "nf_sim_packets_forwarded_total";
    delivered = metric_value "nf_sim_packets_delivered_total";
    drops = metric_value "nf_sim_packets_dropped_total";
    ecn = metric_value "nf_sim_ecn_marks_total";
    profile;
    handler_bytes;
  }

(* Everything about a repetition that must not change between runs of
   the same scenario: convergence times (bit patterns), unconverged count
   and the packet counters. *)
let digest r =
  let b = Buffer.create 256 in
  Array.iter (fun t -> Buffer.add_string b (Printf.sprintf "%h;" t)) r.result.Psupport.times;
  Buffer.add_string b
    (Printf.sprintf "u%d d%d e%.0f f%.0f v%.0f x%.0f m%.0f" r.result.Psupport.unconverged
       r.result.Psupport.drops r.events r.forwarded r.delivered r.drops r.ecn);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The scenario's flow population, regenerated from the same seed the
   way Psupport.semidyn draws it: live flows and busy links per epoch. *)
let traffic ~ls ~setup =
  let topo = ls.Nf_topo.Builders.topo in
  let rng = Nf_util.Rng.create ~seed:setup.Psupport.seed in
  let sc =
    Nf_workload.Semidynamic.generate rng ~hosts:ls.Nf_topo.Builders.servers
      ~n_paths:setup.Psupport.n_paths ~flows_per_event:setup.Psupport.flows_per_event
      ~active_min:setup.Psupport.active_min ~active_max:setup.Psupport.active_max
      ~n_events:setup.Psupport.n_events ()
  in
  let paths =
    Array.mapi
      (fun i { Nf_workload.Traffic.src; dst } ->
        Nf_topo.Routing.ecmp_path topo ~src ~dst ~hash:(i * 2654435761))
      sc.Nf_workload.Semidynamic.pairs
  in
  let n_links = Array.length (Nf_topo.Topology.links topo) in
  let live = Fbuf.create () and fracs = Fbuf.create () and nnz = Fbuf.create () in
  for k = 0 to setup.Psupport.n_events do
    let active = Nf_workload.Semidynamic.active_after sc k in
    let used = Array.make n_links false in
    let z = ref 0 in
    List.iter
      (fun i ->
        List.iter (fun l -> used.(l) <- true) paths.(i);
        z := !z + List.length paths.(i))
      active;
    Fbuf.add live (float_of_int (List.length active));
    Fbuf.add fracs
      (float_of_int (Array.fold_left (fun a u -> if u then a + 1 else a) 0 used)
      /. float_of_int n_links);
    Fbuf.add nnz (float_of_int !z)
  done;
  let started =
    List.fold_left
      (fun a ev -> a + List.length ev.Nf_workload.Semidynamic.started)
      (List.length sc.Nf_workload.Semidynamic.initial)
      sc.Nf_workload.Semidynamic.events
  in
  [
    metric "traffic.live_flows_mean" "count" (mean (Fbuf.to_array live));
    metric "traffic.active_link_frac" "frac" (mean (Fbuf.to_array fracs));
    metric "traffic.flows" "count" (float_of_int started);
    metric "traffic.nnz" "count" (mean (Fbuf.to_array nnz));
  ]

let run ~seed ~reps ~traced ~spans_path =
  (* Building the 20-link fabric takes ~10 us, below the clock's
     resolution for one build: time batches of builds and report the
     median batch over its size. *)
  let batch_s, ls =
    timed_median setup_batches (fun () ->
        for _ = 2 to setup_batch do
          ignore (build_fabric ())
        done;
        build_fabric ())
  in
  let setup_s = batch_s /. float_of_int setup_batch in
  (* one fig4a-packet scenario per repetition, each with its own seed *)
  let setups = Array.init reps (fun r -> setup_of ~seed:((seed * 1000) + r)) in
  let pass ?spans traced =
    let t0 = now () in
    let rs = Array.mapi (fun r setup -> simulate ?spans ~ls ~setup ~traced r) setups in
    (rs, now () -. t0)
  in
  let plain, wall = pass false in
  let peak = peak_rss_mb None in
  let walls = Array.map (fun r -> r.wall) plain in
  let digests = Array.map digest plain in
  (* the first scenario once more: the simulator must repeat it bit for bit *)
  let again = simulate ~ls ~setup:setups.(0) ~traced:false 0 in
  let no_drops r = r.result.Psupport.drops = 0 && Float.equal r.drops 0. in
  let checks =
    Array.to_list
      (Array.mapi (fun i r -> (Printf.sprintf "scenario %d: no drops" i, no_drops r)) plain)
    @ [ ("scenario 0 repeats its digest", String.equal (digest again) digests.(0)) ]
  in
  let total f rs = Array.fold_left (fun a r -> a +. f r) 0. rs in
  let end_to_end =
    [
      metric "setup_s" "s" setup_s ~samples:(setup_batches * setup_batch);
      metric "op_p50_ms" "ms" (median walls *. 1e3) ~samples:reps;
      metric "ops_per_s" "1/s" (float_of_int reps /. wall) ~samples:reps;
      metric "peak_rss_mb" "MB" peak;
    ]
  in
  let workload_metrics =
    [
      metric "setup_s" "s" setup_s ~samples:(setup_batches * setup_batch);
      metric "sim_wall_s" "s" (median walls) ~samples:reps;
      metric "peak_rss_mb" "MB" peak;
    ]
  in
  let per_layer, checks =
    if not traced then ([], checks)
    else begin
      let sp = Spans.create () in
      let traced_reps, traced_wall = pass ~spans:sp true in
      Spans.write sp spans_path;
      let cat name rs =
        total (fun r -> Option.value (List.assoc_opt name r.profile) ~default:0.) rs
      in
      let handlers = List.fold_left (fun a c -> a +. cat c traced_reps) 0. handler_cats in
      let events = total (fun r -> r.events) plain in
      let per_scenario = List.map (fun setup -> traffic ~ls ~setup) (Array.to_list setups) in
      let traffic_mean name =
        mean
          (Array.of_list
             (List.map
                (fun ms -> (List.find (fun m -> String.equal m.name name) ms).value)
                per_scenario))
      in
      let layer =
        [
          metric "sim.events" "count" events;
          metric "sim.events_per_s" "1/s" (events /. wall) ~samples:reps;
          metric "sim.heap_depth_max" "count"
            (Array.fold_left (fun a r -> Float.max a r.heap_depth) 0. plain);
          metric "sim.dispatch_s" "s"
            (total (fun r -> r.wall) traced_reps -. handlers -. cat "xwi-solve" traced_reps)
            ~samples:reps;
          metric "network.pkt_arrive_s" "s" (cat "pkt-arrive" traced_reps) ~samples:reps;
          metric "network.link_tx_s" "s" (cat "link-tx" traced_reps) ~samples:reps;
          metric "network.price_update_s" "s" (cat "price-update" traced_reps) ~samples:reps;
          metric "network.host_s" "s" (cat "host" traced_reps) ~samples:reps;
          metric "xwi_core.solve_s" "s" (cat "xwi-solve" traced_reps) ~samples:reps;
          metric "network.pkts_forwarded" "count" (total (fun r -> r.forwarded) plain);
          metric "network.pkts_delivered" "count" (total (fun r -> r.delivered) plain);
          metric "network.drops" "count" (total (fun r -> r.drops) plain);
          metric "network.ecn_marks" "count" (total (fun r -> r.ecn) plain);
          metric "gc.alloc_bytes_per_event" "B/event"
            (total (fun r -> r.handler_bytes) traced_reps /. Float.max 1. events);
          metric "trace_overhead_frac" "frac" ((traced_wall /. wall) -. 1.);
          metric "traffic.live_flows_mean" "count" (traffic_mean "traffic.live_flows_mean");
          metric "traffic.active_link_frac" "frac" (traffic_mean "traffic.active_link_frac");
          metric "traffic.flows" "count"
            (traffic_mean "traffic.flows" *. float_of_int reps);
          metric "traffic.nnz" "count" (traffic_mean "traffic.nnz");
        ]
      in
      ( layer,
        checks
        @ Array.to_list
            (Array.mapi
               (fun i r ->
                 (Printf.sprintf "traced scenario %d repeats its digest" i,
                  String.equal (digest r) digests.(i)))
               traced_reps) )
    end
  in
  {
    end_to_end;
    workload_metrics;
    per_layer;
    checks;
    notes =
      [
        ("digests", String.concat "," (Array.to_list digests));
        ("sim_events", Printf.sprintf "%.0f" (total (fun r -> r.events) plain));
        ("scenario_walls_s",
         String.concat "," (Array.to_list (Array.map (fun w -> Printf.sprintf "%.3f" w) walls)));
        ("unconverged",
         String.concat ","
           (Array.to_list (Array.map (fun r -> string_of_int r.result.Psupport.unconverged) plain)));
        ("convergence_times_us",
         String.concat ";"
           (Array.to_list
              (Array.map
                 (fun r ->
                   String.concat ","
                     (Array.to_list
                        (Array.map (fun t -> Printf.sprintf "%.3f" (t *. 1e6)) r.result.Psupport.times)))
                 plain)));
      ];
  }
