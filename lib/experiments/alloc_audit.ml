(* Steady-state allocation audit of the [@nf.hot] kernels.

   Each kernel is prebuilt once (topology, problem, queues, workspaces)
   and then driven through [Gcstats.bytes_per_iteration], which warms the
   kernel up past any lazy workspace growth and reports minor-heap bytes
   per steady-state iteration. A clean kernel measures exactly 0.0; the
   [budget] of 1 byte/iter absorbs only measurement noise, not real
   boxing (a single boxed float already costs 16 bytes on 64-bit).

   Build-profile caveat: dune's dev profile compiles with -opaque, which
   disables cross-unit inlining, so a float crossing a library boundary
   (Fheap's [~key] argument and [top_key] result, called from nf_sim /
   this audit) is boxed no matter what the callee looks like. That is a
   property of the build profile, not of the kernels — release builds
   measure 0 — so [run] probes whether boundary floats box and grants
   the two Fheap-boundary kernels a fixed [boundary_limit] when they do.
   The xWI and max-min kernels keep their floats inside one compilation
   unit by construction and must measure clean under every profile.

   Run with the process-wide [Nf_num.Diag] config *cleared*: an attached
   diag deliberately allocates one sample record per observed step. *)

type result = {
  kernel : string;
  per : string;
  bytes_per_iter : float;
  limit : float;
}

let budget = 1.0

(* Two boxes per iteration (32 B) is the exact -opaque boundary cost of
   the audited Fheap round trips; 40 adds measurement headroom without
   admitting a third box. *)
let boundary_limit = 40.0

(* Does a float result box when returned across a library boundary? A
   1-element Fheap keyed once: [top_key] is [@inline] and allocation-free,
   so anything measured here is the call-boundary box of a dev (-opaque)
   build. *)
let boundary_boxing () =
  let h = Nf_util.Fheap.create ~capacity:4 ~dummy:0 () in
  Nf_util.Fheap.push h ~key:1.0 ~aux:0 0;
  let out = [| 0. |] in
  let probe () = out.(0) <- Nf_util.Fheap.top_key h in
  Nf_util.Gcstats.bytes_per_iteration ~warmup:64 ~iters:1_000 probe > budget

let fheap_kernel () =
  let h = Nf_util.Fheap.create ~capacity:64 ~dummy:0 () in
  let out = [| 0. |] in
  let i = ref 0 in
  fun () ->
    incr i;
    Nf_util.Fheap.push h ~key:(float_of_int (!i mod 97)) ~aux:0 0;
    (* Stored, not [ignore]d: [ignore] takes ['a] and would box the float
       itself, charging the kernel for the harness's sin. *)
    out.(0) <- Nf_util.Fheap.top_key h;
    ignore (Nf_util.Fheap.top h : int);
    Nf_util.Fheap.drop h

let stfq_kernel () =
  let q = Nf_sim.Queue_disc.stfq () in
  let packets =
    Array.init 16 (fun fl ->
        let p =
          Nf_sim.Packet.make_data ~flow:fl ~seq:fl ~size:1500 ~path:[| 0 |]
            ~now:0.
        in
        p.Nf_sim.Packet.virtual_packet_len <-
          1500. /. float_of_int (1 + (fl mod 7));
        p)
  in
  let i = ref 0 in
  fun () ->
    incr i;
    let p = packets.(!i mod 16) in
    ignore (q.Nf_sim.Queue_disc.enqueue p : bool);
    ignore (q.Nf_sim.Queue_disc.dequeue_exn () : Nf_sim.Packet.t)

(* The same k=4 fat-tree / ECMP / proportional-fair scenario as the
   bench's xwi_iters_per_sec@small kernel, shrunk to 64 flows. *)
let xwi_problem ~k ~n_flows =
  let ft = Nf_topo.Builders.fat_tree ~k () in
  let rng = Nf_util.Rng.create ~seed:7 in
  let pairs =
    Nf_workload.Traffic.random_pairs rng ~hosts:ft.Nf_topo.Builders.ft_servers
      ~n:n_flows
  in
  let router = Nf_topo.Routing.router ft.Nf_topo.Builders.ft_topo in
  let paths =
    Array.mapi
      (fun i { Nf_workload.Traffic.src; dst } ->
        Array.of_list
          (Nf_topo.Routing.ecmp_path_fast router ~src ~dst
             ~hash:(i * 2654435761)))
      pairs
  in
  let caps =
    Array.map
      (fun l -> l.Nf_topo.Topology.capacity)
      (Nf_topo.Topology.links ft.Nf_topo.Builders.ft_topo)
  in
  Nf_num.Problem.create ~caps
    ~groups:
      (Array.to_list
         (Array.map
            (Nf_num.Problem.single_path (Nf_num.Utility.proportional_fair ()))
            paths))

let xwi_kernel () =
  let problem = xwi_problem ~k:4 ~n_flows:64 in
  let state = Nf_num.Xwi_core.init problem in
  (* The audit measures the bare solver: drop any diag a process-wide
     [--diag] config auto-attached (a diag allocates a sample per step
     by design). *)
  Nf_num.Xwi_core.set_diag state None;
  let params = Nf_num.Xwi_core.default_params in
  fun () -> Nf_num.Xwi_core.step problem params state

let maxmin_kernel () =
  let n_links = 32 in
  let n_flows = 64 in
  let caps = Array.make n_links 1e10 in
  let paths =
    Array.init n_flows (fun i ->
        Array.init (1 + (i mod 4)) (fun j -> (i + (j * 7)) mod n_links))
  in
  let inc =
    Nf_num.Incidence.create ~caps ~paths
      ~group_of_flow:(Array.init n_flows Fun.id)
      ~n_groups:n_flows
  in
  let weights = Array.init n_flows (fun i -> 0.5 +. float_of_int (i mod 7)) in
  let rates = Array.make n_flows 0. in
  let ws = Nf_num.Maxmin.sparse_workspace inc in
  fun () -> Nf_num.Maxmin.solve_sparse ws inc ~weights ~rates

(* The packet simulator end to end: fig4a-packet's 2x2x4 leaf-spine
   under NUMFabric (Swift hosts, STFQ ports, xWI price engines) with six
   persistent flows, four of them crossing the spine, advanced by
   [Network.run] in slices after a warm-up that fills the queues, rings
   and flow tables. Reported per simulator event.

   Unlike the kernels above, this path allocates by design: every data
   packet and every ACK is a fresh 20-word [Packet.t], and a write to one
   of its float fields boxes (the stamps at the sender and receiver, the
   path price at every xWI dequeue; see [Packet]). Each packet costs
   several events (two per hop — the link transmission and the arrival —
   plus the host's). A release build measures ~39 B/event; the per-event
   path holds no closure, option or other boxed float besides.
   [network_limit] (48) sits below that plus one boxed float per event
   (16 B), so a box on every event fails the audit, as does a closure per
   hop. Under the dev profile's -opaque every float that crosses a
   library boundary on the path ([Sim.now], the schedulers' times)
   boxes; a dev build measures ~114 B/event, and [network_boundary_limit]
   (128) again leaves less than one more box per event. *)
let network_limit = 48.0

let network_boundary_limit = 128.0

let network_bytes_per_event () =
  let ls = Nf_topo.Builders.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:4 () in
  let h = ls.Nf_topo.Builders.servers in
  let net =
    Nf_sim.Network.create ~topology:ls.Nf_topo.Builders.topo
      ~protocol:(Nf_sim.Protocols.get "numfabric") ()
  in
  List.iteri
    (fun id (src, dst) ->
      Nf_sim.Network.add_flow net
        (Nf_sim.Network.flow ~utility:(Nf_num.Utility.proportional_fair ()) ~id
           ~src:h.(src) ~dst:h.(dst) ()))
    [ (0, 4); (1, 5); (2, 6); (3, 7); (0, 1); (5, 4) ];
  let sim = Nf_sim.Network.sim net in
  let slice = 100e-6 in
  let run_to k = Nf_sim.Network.run net ~until:(float_of_int k *. slice) in
  for k = 1 to 20 do
    run_to k
  done;
  (* Flushed reads, as in [Gcstats.bytes_per_iteration]: the allocation
     counter only advances at minor collections. *)
  let flush_read () =
    Gc.minor ();
    Nf_util.Gcstats.bytes ()
  in
  let e0 = Nf_engine.Sim.events_processed sim in
  let b0 = flush_read () in
  for k = 21 to 40 do
    run_to k
  done;
  let b1 = flush_read () in
  (b1 -. b0) /. float_of_int (Nf_engine.Sim.events_processed sim - e0)

(* (kernel, thunk, crosses an Fheap library boundary with raw floats) *)
let kernels () =
  [
    ("fheap_push_pop", fheap_kernel (), true);
    ("stfq_enqueue_dequeue", stfq_kernel (), true);
    ("xwi_step", xwi_kernel (), false);
    ("maxmin_solve_sparse", maxmin_kernel (), false);
  ]

let run ?iters () =
  let relaxed = boundary_boxing () in
  let per_iter =
    List.map
      (fun (kernel, f, boundary) ->
        {
          kernel;
          per = "iter";
          bytes_per_iter = Nf_util.Gcstats.bytes_per_iteration ?iters f;
          limit = (if relaxed && boundary then boundary_limit else budget);
        })
      (kernels ())
  in
  per_iter
  @ [
      {
        kernel = "network_numfabric";
        per = "event";
        bytes_per_iter = network_bytes_per_event ();
        limit = (if relaxed then network_boundary_limit else network_limit);
      };
    ]

let ok results =
  List.for_all (fun r -> r.bytes_per_iter <= r.limit) results

let pp ppf results =
  Format.fprintf ppf "@[<v>Steady-state allocation audit:@,";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-24s %10.3f B/%-5s  (limit %5.1f)  %s@," r.kernel
        r.bytes_per_iter r.per r.limit
        (if r.bytes_per_iter <= r.limit then "ok" else "FAIL"))
    results;
  Format.fprintf ppf "@]"
