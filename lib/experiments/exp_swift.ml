(* Swift validation (§4.1): with static weights, the packet-level Swift
   transport (STFQ switches + packet-pair/EWMA window control) must
   achieve the network-wide weighted max-min allocation. We pin random
   weights on random leaf-spine paths and compare measured receiver rates
   against the water-filling oracle.

   (Weights are pinned with a "static weight" pseudo-utility whose inverse
   marginal utility is the constant w: the xWI machinery keeps running but
   always computes the same weight, so the experiment isolates exactly the
   Swift layer -- STFQ scheduling plus the window-based rate control.) *)

module Network = Nf_sim.Network
module Topology = Nf_topo.Topology
module Routing = Nf_topo.Routing

type flow_report = {
  flow : int;
  weight : float;
  expected : float;
  measured : float;
}

type t = { flows : flow_report list; max_rel_error : float }

let static_weight w =
  Nf_num.Utility.make
    ~name:(Printf.sprintf "static_weight(%g)" w)
    ~value:(fun x -> x)
    ~deriv:(fun _ -> 1.)
    ~inv_deriv:(fun _ -> w)

let run ?(seed = 21) ?(n_flows = 12) ?(duration = 8e-3) () =
  let ls = Nf_topo.Builders.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:4 () in
  let topology = ls.Nf_topo.Builders.topo in
  let hosts = ls.Nf_topo.Builders.servers in
  let rng = Nf_util.Rng.create ~seed in
  let pairs = Nf_workload.Traffic.random_pairs rng ~hosts ~n:n_flows in
  let weights = Array.init n_flows (fun _ -> Nf_util.Rng.uniform rng ~lo:0.5 ~hi:4.) in
  let paths =
    Array.mapi
      (fun i { Nf_workload.Traffic.src; dst } ->
        Array.of_list (Routing.ecmp_path topology ~src ~dst ~hash:(i * 7919)))
      pairs
  in
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topology) in
  let expected =
    let groups =
      Array.mapi
        (fun i path -> Nf_num.Problem.single_path (static_weight weights.(i)) path)
        paths
    in
    Nf_num.Maxmin.solve_problem (Nf_num.Problem.create_groups ~caps ~groups) ~weights
  in
  let net =
    Network.create ~topology ~protocol:(Nf_sim.Protocols.get "numfabric") ()
  in
  Array.iteri
    (fun i { Nf_workload.Traffic.src; dst } ->
      Network.add_flow net
        (Network.flow ~path:paths.(i) ~utility:(static_weight weights.(i))
           ~id:i ~src ~dst ()))
    pairs;
  Network.run net ~until:duration;
  let flows =
    List.init n_flows (fun i ->
        {
          flow = i;
          weight = weights.(i);
          expected = expected.(i);
          measured =
            (match Network.measured_rate net i with Some r -> r | None -> 0.);
        })
  in
  let max_rel_error =
    List.fold_left
      (fun acc f -> Float.max acc (Float.abs (f.measured -. f.expected) /. f.expected))
      0. flows
  in
  { flows; max_rel_error }

let report t =
  Report.make
    ~title:
      "Swift validation: packet-level weighted max-min vs water-filling oracle"
    ~columns:[ "flow"; "weight"; "expected_gbps"; "measured_gbps" ]
    ~notes:
      [ Printf.sprintf "max relative error: %.2f%%" (100. *. t.max_rel_error) ]
    (List.map
       (fun f ->
         [
           Report.int f.flow;
           Report.float f.weight;
           Report.float (f.expected /. 1e9);
           Report.float (f.measured /. 1e9);
         ])
       t.flows)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Swift validation: packet-level weighted max-min vs water-filling \
     oracle@,  flow  weight   expected     measured@,";
  List.iter
    (fun f ->
      Format.fprintf ppf "  %3d   %5.2f   %a   %a@," f.flow f.weight
        Support.pp_rate_gbps f.expected Support.pp_rate_gbps f.measured)
    t.flows;
  Format.fprintf ppf "  max relative error: %.2f%%@]" (100. *. t.max_rel_error)
