module Topology = Nf_topo.Topology
module Routing = Nf_topo.Routing
module Sim = Nf_engine.Sim
module Trace = Nf_util.Trace
module Metrics = Nf_util.Metrics

(* Global observability: counters are cheap enough to bump unconditionally;
   trace emissions are guarded by [Trace.on] so a disabled sink costs one
   branch per potential event. *)
let m_forwarded =
  Metrics.counter Metrics.global
    ~help:"Packets accepted by a link queue" "nf_sim_packets_forwarded_total"

let m_dropped =
  Metrics.counter Metrics.global
    ~help:"Packets rejected by a full link queue" "nf_sim_packets_dropped_total"

let m_ecn_marks =
  Metrics.counter Metrics.global
    ~help:"Packets ECN-marked on enqueue" "nf_sim_ecn_marks_total"

let m_delivered =
  Metrics.counter Metrics.global
    ~help:"Packets delivered to their end host" "nf_sim_packets_delivered_total"

let m_flows_started =
  Metrics.counter Metrics.global
    ~help:"Flow senders started" "nf_sim_flows_started_total"

let m_flows_completed =
  Metrics.counter Metrics.global
    ~help:"Finite flows completed" "nf_sim_flows_completed_total"

(* Persistent flows never complete — they are torn down by stop_flow_at.
   Counting teardowns separately keeps started = completed + stopped +
   still-running legible in exported metrics (the quick sweep's packet
   experiments use persistent flows only, hence completed = 0 there). *)
let m_flows_stopped =
  Metrics.counter Metrics.global
    ~help:"Flow senders stopped before completing" "nf_sim_flows_stopped_total"

let m_wall_per_sim_second =
  Metrics.gauge Metrics.global
    ~help:"Wall-clock seconds per simulated second of the last Network.run"
    "nf_sim_wall_seconds_per_sim_second"

type flow_spec = {
  fs_id : int;
  fs_src : int;
  fs_dst : int;
  fs_size : float;
  fs_start : float;
  fs_path : int array option;
  fs_utility : Nf_num.Utility.t option;
}

let flow ?path ?utility ?(size = infinity) ?(start = 0.) ~id ~src ~dst () =
  {
    fs_id = id;
    fs_src = src;
    fs_dst = dst;
    fs_size = size;
    fs_start = start;
    fs_path = path;
    fs_utility = utility;
  }

(* Scheduling categories, interned once: the forward path runs per packet. *)
let cat_link_tx = Sim.cat "link-tx"

let cat_pkt_arrive = Sim.cat "pkt-arrive"

let cat_price_update = Sim.cat "price-update"

let cat_flow_start = Sim.cat "flow-start"

let cat_flow_stop = Sim.cat "flow-stop"

let cat_monitor = Sim.cat "monitor"

(* Written per transmitted packet: all-float so the write stores in
   place instead of boxing. *)
type link_floats = { mutable delivered : float  (* bytes dequeued *) }

(* Packets on a link arrive at its far end in the order they were sent:
   the next transmission starts only once the previous one has finished,
   and every packet then takes the same propagation delay. So the packets
   on the wire are a FIFO — a ring [wire] of [wire_len] packets starting
   at [wire_head], its capacity a power of two — and one preallocated
   arrival handler per link pops the head, instead of a fresh closure
   per hop. Each arrival is still scheduled at exactly its own time. *)
type link_state = {
  link : Topology.link;
  qdisc : Queue_disc.t;
  engine : Price_engine.t;
  byte_time : float;  (* seconds to serialize one byte *)
  mutable busy : bool;
  lf : link_floats;
  mutable wire : Packet.t array;
  mutable wire_head : int;
  mutable wire_len : int;
  mutable tx_done : unit -> unit;
      (* preallocated "transmission finished" handler, built once the
         network exists, so the per-packet path schedules it for free *)
  mutable on_arrive : unit -> unit;  (* likewise: the wire head arrives *)
}

type t = {
  sim : Sim.t;
  topo : Topology.t;
  protocol : Protocol.t;
  config : Config.t;
  links : link_state array;
  mutable sender_of : Host.sender option array;
  mutable receiver_of : Host.receiver option array;
      (* the endpoints, indexed by flow id (ids are non-negative) *)
  paths : (int, int array) Hashtbl.t;
  rtts : (int, float) Hashtbl.t;
  starts : (int, float) Hashtbl.t;
  record : Record.t;
  trace : Trace.t;
  ctx : Host.ctx;
}

let sim t = t.sim

let protocol t = t.protocol

let record t = t.record

let trace t = t.trace

(* ------------------------------------------------------------------ *)
(* Link transmission machinery *)

let wire_push ls pkt =
  let cap = Array.length ls.wire in
  if ls.wire_len = cap then begin
    (* Full: unroll into a ring twice the size. *)
    let grown = Array.make (2 * cap) Packet.dummy in
    for i = 0 to cap - 1 do
      grown.(i) <- ls.wire.((ls.wire_head + i) land (cap - 1))
    done;
    ls.wire <- grown;
    ls.wire_head <- 0
  end;
  let w = ls.wire in
  w.((ls.wire_head + ls.wire_len) land (Array.length w - 1)) <- pkt;
  ls.wire_len <- ls.wire_len + 1

let wire_pop ls =
  let w = ls.wire and h = ls.wire_head in
  let pkt = w.(h) in
  w.(h) <- Packet.dummy;
  ls.wire_head <- (h + 1) land (Array.length w - 1);
  ls.wire_len <- ls.wire_len - 1;
  pkt

let[@inline] endpoint table id =
  if id >= 0 && id < Array.length table then table.(id) else None

let rec try_transmit t ls =
  (* [packet_count] then [dequeue_exn] rather than [dequeue]: the option
     wrapper would allocate once per transmitted packet. *)
  if (not ls.busy) && ls.qdisc.Queue_disc.packet_count () > 0 then begin
    let pkt = ls.qdisc.Queue_disc.dequeue_exn () in
    ls.engine.Price_engine.on_dequeue pkt;
      ls.busy <- true;
      ls.lf.delivered <- ls.lf.delivered +. float_of_int pkt.Packet.size;
      if Trace.on t.trace Trace.Dequeue then
        Trace.emit t.trace Trace.Dequeue ~subject:ls.link.Topology.link_id
          ~time:(Sim.now t.sim)
          ~aux:(float_of_int pkt.Packet.flow)
          (float_of_int pkt.Packet.size);
      let tx = float_of_int pkt.Packet.size *. ls.byte_time in
      Sim.schedule_after_cat t.sim ~cat:cat_link_tx ~delay:tx ls.tx_done;
      wire_push ls pkt;
      Sim.schedule_after_cat t.sim ~cat:cat_pkt_arrive
        ~delay:(tx +. ls.link.Topology.delay) ls.on_arrive
  end

and forward t pkt link_id =
  let ls = t.links.(link_id) in
  let marked_before = pkt.Packet.ecn in
  if ls.qdisc.Queue_disc.enqueue pkt then begin
    Metrics.incr m_forwarded;
    if Trace.on t.trace Trace.Enqueue then
      Trace.emit t.trace Trace.Enqueue ~subject:link_id ~time:(Sim.now t.sim)
        ~aux:(float_of_int pkt.Packet.flow)
        (float_of_int pkt.Packet.size);
    if pkt.Packet.ecn && not marked_before then begin
      Metrics.incr m_ecn_marks;
      if Trace.on t.trace Trace.EcnMark then
        Trace.emit t.trace Trace.EcnMark ~subject:link_id ~time:(Sim.now t.sim)
          ~aux:(float_of_int pkt.Packet.flow)
          (float_of_int pkt.Packet.size)
    end;
    ls.engine.Price_engine.on_enqueue pkt;
    try_transmit t ls
  end
  else begin
    Metrics.incr m_dropped;
    if Trace.on t.trace Trace.Drop then
      Trace.emit t.trace Trace.Drop ~subject:link_id ~time:(Sim.now t.sim)
        ~aux:(float_of_int pkt.Packet.flow)
        (float_of_int pkt.Packet.size)
  end

and arrive t pkt =
  pkt.Packet.hop <- pkt.Packet.hop + 1;
  if pkt.Packet.hop < Array.length pkt.Packet.path then
    forward t pkt pkt.Packet.path.(pkt.Packet.hop)
  else begin
    (* Reached the end host. *)
    Metrics.incr m_delivered;
    if Trace.on t.trace Trace.PktRecv then
      Trace.emit t.trace Trace.PktRecv ~subject:pkt.Packet.flow
        ~time:(Sim.now t.sim)
        ~aux:(float_of_int pkt.Packet.size)
        (float_of_int pkt.Packet.seq);
    match pkt.Packet.kind with
    | Packet.Data -> (
      match endpoint t.receiver_of pkt.Packet.flow with
      | Some r -> Host.handle_data t.ctx r pkt
      | None -> ())
    | Packet.Ack -> (
      match endpoint t.sender_of pkt.Packet.flow with
      | Some s -> Host.handle_ack t.ctx s pkt
      | None -> ())
  end

let transmit t pkt =
  if Trace.on t.trace Trace.PktSend then
    Trace.emit t.trace Trace.PktSend ~subject:pkt.Packet.flow
      ~time:(Sim.now t.sim)
      ~aux:(float_of_int pkt.Packet.size)
      (float_of_int pkt.Packet.seq);
  forward t pkt pkt.Packet.path.(0)

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ?(config = Config.default) ?record ?trace ~topology ~protocol () =
  let module P = (val protocol : Protocol.PROTOCOL) in
  let sim = Sim.create () in
  let record =
    match record with
    | Some r -> r
    | None -> Record.create ()
  in
  let trace =
    match trace with
    | Some tr -> tr
    | None -> Trace.default ()
  in
  let links =
    Array.map
      (fun link ->
        let lh = P.make_link config ~capacity:link.Topology.capacity in
        {
          link;
          qdisc = lh.Protocol.lh_qdisc;
          engine = lh.Protocol.lh_engine;
          byte_time = 8. /. link.Topology.capacity;
          busy = false;
          lf = { delivered = 0. };
          wire = Array.make 16 Packet.dummy;
          wire_head = 0;
          wire_len = 0;
          tx_done = ignore;
          on_arrive = ignore;
        })
      (Topology.links topology)
  in
  let rec t =
    {
      sim;
      topo = topology;
      protocol;
      config;
      links;
      sender_of = [||];
      receiver_of = [||];
      paths = Hashtbl.create 256;
      rtts = Hashtbl.create 256;
      starts = Hashtbl.create 256;
      record;
      trace;
      ctx =
        {
          Host.sim;
          transmit = (fun pkt -> transmit t pkt);
          complete =
            (fun flow_id ->
              let start =
                match Hashtbl.find_opt t.starts flow_id with
                | Some s -> s
                | None -> 0.
              in
              let now = Sim.now sim in
              let fct = now -. start in
              Metrics.incr m_flows_completed;
              if Trace.on t.trace Trace.FlowDone then
                Trace.emit t.trace Trace.FlowDone ~subject:flow_id ~time:now
                  fct;
              Record.complete t.record ~flow:flow_id ~at:now ~fct);
          cfg = config;
        };
    }
  in
  Array.iter
    (fun ls ->
      ls.tx_done <-
        (fun () ->
          ls.busy <- false;
          try_transmit t ls);
      ls.on_arrive <- (fun () -> arrive t (wire_pop ls)))
    links;
  (* Synchronized periodic feedback updates on every link (§5: PTP). *)
  (match P.update_interval config with
  | Some interval ->
    Sim.periodic_cat sim ~cat:cat_price_update ~start:interval ~interval
      (fun () ->
        Array.iter (fun ls -> ls.engine.Price_engine.update ()) links;
        if Trace.on trace Trace.PriceUpdate then
          Array.iteri
            (fun i ls ->
              Trace.emit trace Trace.PriceUpdate ~subject:i ~time:(Sim.now sim)
                (ls.engine.Price_engine.value ()))
            links)
  | None -> ());
  t

(* Baseline RTT d0: propagation both ways plus one serialization per hop
   for the data packet and the ACK. *)
let compute_d0 t fwd rev =
  let dir path pkt_bytes =
    Array.fold_left
      (fun acc lid ->
        let l = Topology.link t.topo lid in
        acc +. l.Topology.delay +. (pkt_bytes *. 8. /. l.Topology.capacity))
      0. path
  in
  dir fwd (float_of_int Packet.data_size) +. dir rev (float_of_int Packet.ack_size)

let reverse_path t fwd =
  let rev = Array.make (Array.length fwd) (-1) in
  let n = Array.length fwd in
  for i = 0 to n - 1 do
    let l = Topology.link t.topo fwd.(n - 1 - i) in
    match Topology.find_link t.topo ~src:l.Topology.dst ~dst:l.Topology.src with
    | Some r -> rev.(i) <- r
    | None ->
      invalid_arg
        (Printf.sprintf "Network.add_flow: no reverse link for %d"
           l.Topology.link_id)
  done;
  rev

(* [table] with room for index [id], grown geometrically. *)
let with_room table id =
  let n = Array.length table in
  if id < n then table
  else begin
    let grown = Array.make (Stdlib.max (id + 1) (2 * n)) None in
    Array.blit table 0 grown 0 n;
    grown
  end

let add_flow t spec =
  if spec.fs_id < 0 then
    invalid_arg
      (Printf.sprintf "Network.add_flow: negative flow id %d" spec.fs_id);
  if endpoint t.sender_of spec.fs_id <> None then
    invalid_arg "Network.add_flow: duplicate flow id";
  (match
     ( (Topology.node t.topo spec.fs_src).Topology.kind,
       (Topology.node t.topo spec.fs_dst).Topology.kind )
   with
  | Topology.Host, Topology.Host -> ()
  | _ -> invalid_arg "Network.add_flow: endpoints must be hosts");
  let path =
    match spec.fs_path with
    | Some p ->
      if not (Topology.path_is_valid t.topo ~src:spec.fs_src ~dst:spec.fs_dst
                (Array.to_list p))
      then invalid_arg "Network.add_flow: invalid pinned path";
      p
    | None ->
      Array.of_list
        (Routing.ecmp_path t.topo ~src:spec.fs_src ~dst:spec.fs_dst
           ~hash:(spec.fs_id * 2654435761))
  in
  let rpath = reverse_path t path in
  let d0 = compute_d0 t path rpath in
  let line_rate = Topology.path_min_capacity t.topo (Array.to_list path) in
  let sender =
    Host.make_sender t.ctx ~flow:spec.fs_id ~path ~size:spec.fs_size ~d0
      ~line_rate ~protocol:t.protocol ~utility:spec.fs_utility
  in
  let sink =
    let record_rates = t.config.Config.record_rates in
    if record_rates || Trace.on t.trace Trace.RateUpdate then
      Some
        (fun ~time v ->
          if record_rates then
            Record.add t.record Record.Rate ~subject:spec.fs_id ~time v;
          if Trace.on t.trace Trace.RateUpdate then
            Trace.emit t.trace Trace.RateUpdate ~subject:spec.fs_id ~time v)
    else None
  in
  let receiver = Host.make_receiver t.ctx ~flow:spec.fs_id ~rpath ~sink in
  t.sender_of <- with_room t.sender_of spec.fs_id;
  t.sender_of.(spec.fs_id) <- Some sender;
  t.receiver_of <- with_room t.receiver_of spec.fs_id;
  t.receiver_of.(spec.fs_id) <- Some receiver;
  Hashtbl.replace t.paths spec.fs_id path;
  Hashtbl.replace t.rtts spec.fs_id d0;
  Hashtbl.replace t.starts spec.fs_id spec.fs_start;
  Sim.schedule_cat t.sim ~cat:cat_flow_start ~at:spec.fs_start (fun () ->
      Metrics.incr m_flows_started;
      if Trace.on t.trace Trace.FlowStart then
        Trace.emit t.trace Trace.FlowStart ~subject:spec.fs_id
          ~time:(Sim.now t.sim) spec.fs_size;
      Host.start t.ctx sender)

let stop_flow_at t ~id at =
  match endpoint t.sender_of id with
  | None -> invalid_arg "Network.stop_flow_at: unknown flow"
  | Some s ->
    Sim.schedule_cat t.sim ~cat:cat_flow_stop ~at (fun () ->
        if not (Host.completed s || Host.stopped s) then
          Metrics.incr m_flows_stopped;
        Host.stop s)

let run t ~until =
  let wall0 = Nf_util.Profile.now () in
  let sim0 = Sim.now t.sim in
  Sim.run ~until t.sim;
  let sim_dt = Sim.now t.sim -. sim0 in
  if sim_dt > 0. then
    Metrics.set_gauge m_wall_per_sim_second
      ((Nf_util.Profile.now () -. wall0) /. sim_dt)

(* ------------------------------------------------------------------ *)
(* Measurement *)

let measured_rate t id =
  match endpoint t.receiver_of id with
  | None -> None
  | Some r -> Host.measured_rate r

let rate_series t id = Record.find t.record Record.Rate ~subject:id

let received_bytes t id =
  match endpoint t.receiver_of id with
  | None -> 0.
  | Some r -> Host.received_bytes r

let fct t id = Record.fct t.record id

let completions t = Record.completions t.record

let queue_bytes t ~link = t.links.(link).qdisc.Queue_disc.byte_length ()

let total_drops t =
  Array.fold_left (fun acc ls -> acc + ls.qdisc.Queue_disc.drops ()) 0 t.links

let link_price t ~link = t.links.(link).engine.Price_engine.value ()

let link_delivered_bytes t ~link = t.links.(link).lf.delivered

let monitor_links t ~links ~every =
  List.iter
    (fun link ->
      if link < 0 || link >= Array.length t.links then
        invalid_arg "Network.monitor_links: bad link id")
    links;
  Sim.periodic_cat t.sim ~cat:cat_monitor ~interval:every (fun () ->
      let now = Sim.now t.sim in
      List.iter
        (fun link ->
          let ls = t.links.(link) in
          Record.add t.record Record.Queue ~subject:link ~time:now
            (float_of_int (ls.qdisc.Queue_disc.byte_length ()));
          Record.add t.record Record.Price ~subject:link ~time:now
            (ls.engine.Price_engine.value ());
          Record.add t.record Record.Drops ~subject:link ~time:now
            (float_of_int (ls.qdisc.Queue_disc.drops ())))
        links)

let monitor_metrics ?(registry = Metrics.global) t ~every =
  Sim.periodic_cat t.sim ~cat:cat_monitor ~interval:every (fun () ->
      Record.snapshot_metrics t.record ~registry ~time:(Sim.now t.sim))

let queue_series t ~link = Record.find t.record Record.Queue ~subject:link

let price_series t ~link = Record.find t.record Record.Price ~subject:link

let flow_path t id =
  match Hashtbl.find_opt t.paths id with
  | Some p -> Array.copy p
  | None -> invalid_arg "Network.flow_path: unknown flow"

let baseline_rtt t id =
  match Hashtbl.find_opt t.rtts id with
  | Some d -> d
  | None -> invalid_arg "Network.baseline_rtt: unknown flow"
