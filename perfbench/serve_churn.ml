(* serve-churn: the real allocation daemon ([nf_run serve], i.e.
   Nf_serve.Server over loopback TCP, started as its own process) on the
   paper leaf-spine (320 links). One subscribed client on one plain TCP
   connection — no Unix socket, no TCP_QUICKACK, the way Nf_serve.Client
   talks — runs a closed loop over the seeded Scenario.next_event
   arrival/departure stream around a standing ~100 live flows: send one
   event, read its reply, wait for the epoch push that covers it, send
   the next.

   Why: this is the always-on service users talk to. The closed loop
   makes every epoch carry exactly one event, so each epoch's iteration
   count is fixed by the seed (an open-loop probe at 30 events/s moved
   p50/p99 by ~30% between runs because batch composition followed
   timing). It loads Problem deltas, commit, resize, warm steps and a
   Kkt.check on every iteration, plus Protocol and the transport.

   The ramp to the standing population is part of set-up. It is sent
   with a reply-paced loop (next event after the reply, not the push);
   the server still solves one epoch per event because it replies before
   it solves, so the state at the end of the ramp is seed-determined too.

   After the timed loop the bench replays the same events, epoch by
   epoch, through an in-process replica (Problem deltas, commit,
   Xwi_core.resize, then {Kkt.check; stop at <= 1e-6; step}) and checks
   that its per-epoch iteration counts equal the server's pushes. The
   traced run times the replica's calls as the per-layer breakdown of a
   serve epoch. *)

open Common
module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Kkt = Nf_num.Kkt
module Maxmin = Nf_num.Maxmin
module Incidence = Nf_num.Incidence
module Protocol = Nf_serve.Protocol
module Sjson = Nf_serve.Sjson
module Scenario = Nf_serve.Scenario

let target = 100

let tol = 1e-6

(* Nf_serve.Engine's defaults, which [nf_run serve] runs with. *)
let max_iters = 50_000

let utility = Protocol.Pf { weight = 1. }

(* ------------------------------------------------------------------ *)
(* The seeded event stream. Departures name an index into the client's
   live-gid list, resolved to a gid when the event is sent. *)

let stream ~seed ~events =
  let sc = Scenario.leaf_spine ~seed () in
  let rng = Nf_util.Rng.create ~seed:(seed lxor 0x5bd1e995) in
  (* the standing population: [target] seeded arrivals ([live = 0] always
     draws an arrival) *)
  let ramp = Array.init target (fun _ -> Scenario.next_event rng sc ~live:0 ~target) in
  let live = ref target in
  let timed =
    Array.init events (fun _ ->
        let ev = Scenario.next_event rng sc ~live:!live ~target in
        (match ev with Scenario.Arrive _ -> incr live | Scenario.Depart _ -> decr live);
        ev)
  in
  (sc, ramp, timed)

(* ------------------------------------------------------------------ *)
(* The daemon process and a plain line-oriented TCP connection. *)

type daemon = { pid : int; err : in_channel; port : int }

let start_daemon exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe [| exe; "serve"; "--port"; "0" |] null null w in
  Unix.close w;
  Unix.close null;
  let err = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line err with
    | exception End_of_file -> failwith "nf_run serve exited before listening"
    | line -> (
      match Scanf.sscanf line "nf_run serve: listening on 127.0.0.1:%d" Fun.id with
      | p -> p
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> port ())
  in
  match port () with
  | port -> { pid; err; port }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in err;
    raise e

let reap d =
  ignore (Unix.waitpid [] d.pid);
  close_in_noerr d.err

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d

type conn = { fd : Unix.file_descr; chunk : Bytes.t; pending : Buffer.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; chunk = Bytes.create 4096; pending = Buffer.create 256 }

let send c line =
  let data = line ^ "\n" in
  let n = String.length data in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd data !off (n - !off)
  done

let rec read_line c =
  let data = Buffer.contents c.pending in
  match String.index_opt data '\n' with
  | Some nl ->
    Buffer.clear c.pending;
    Buffer.add_substring c.pending data (nl + 1) (String.length data - nl - 1);
    String.sub data 0 nl
  | None -> (
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
      Buffer.add_subbytes c.pending c.chunk 0 n;
      read_line c)

(* ------------------------------------------------------------------ *)
(* One daemon session: what the client saw. *)

type push = { events : int; iterations : int; converged : bool }

type session = {
  daemon : daemon;
  conn : conn;
  pushes : push Queue.t;  (* every epoch push, in order *)
  mutable covered : int;  (* events covered by the pushes so far *)
  mutable sent : int;
  gids : int Queue.t;  (* server gid of every Add, in order *)
  mutable errors : int;  (* error replies *)
  mutable live : int array;  (* client-side live gids, dense *)
  mutable n_live : int;
}

let is_epoch_push v =
  match Sjson.obj_str "push" v with Some "epoch" -> true | Some _ | None -> false

let bool_field name v =
  match Sjson.member name v with Some (Sjson.Bool b) -> b | Some _ | None -> false

let int_field name v = Option.value (Sjson.obj_int name v) ~default:(-1)

let record_push s v =
  let p =
    {
      events = int_field "events" v;
      iterations = int_field "iterations" v;
      converged = bool_field "converged" v;
    }
  in
  Queue.add p s.pushes;
  s.covered <- s.covered + Stdlib.max 0 p.events

(* Read lines until a non-push line (the reply); pushes met on the way are
   recorded. Returns the raw reply line. *)
let rec await_reply s =
  let line = read_line s.conn in
  match Sjson.parse line with
  | Ok v when Option.is_some (Sjson.member "push" v) ->
    if is_epoch_push v then record_push s v;
    await_reply s
  | Ok _ | Error _ -> line

(* Read until the pushes cover every event sent so far. *)
let rec await_cover s =
  if s.covered < s.sent then begin
    (match Sjson.parse (read_line s.conn) with
    | Ok v when is_epoch_push v -> record_push s v
    | Ok _ | Error _ -> ());
    await_cover s
  end

(* Apply the reply to the client's live list. *)
let settle s ev (reply : ((string * Sjson.t) list, string) result) =
  match (ev, reply) with
  | _, Error _ -> s.errors <- s.errors + 1
  | Scenario.Arrive _, Ok fields -> (
    match Option.bind (List.assoc_opt "gid" fields) Sjson.to_int with
    | Some gid ->
      Queue.add gid s.gids;
      if s.n_live = Array.length s.live then begin
        let grown = Array.make (2 * s.n_live) 0 in
        Array.blit s.live 0 grown 0 s.n_live;
        s.live <- grown
      end;
      s.live.(s.n_live) <- gid;
      s.n_live <- s.n_live + 1
    | None -> s.errors <- s.errors + 1)
  | Scenario.Depart i, Ok _ ->
    s.live.(i) <- s.live.(s.n_live - 1);
    s.n_live <- s.n_live - 1

(* The event as the request line the client sends. *)
let encode sc s = function
  | Scenario.Arrive i ->
    Protocol.encode_command
      (Protocol.Add { utility; paths = [ sc.Scenario.path_pool.(i) ] })
  | Scenario.Depart i -> Protocol.encode_command (Protocol.Remove { gid = s.live.(i) })

(* The ramp is sent in chunks of [ramp_chunk] requests, one write per
   chunk (~0.8 KB, far below the daemon's 4096-byte read), each chunk's
   push awaited before the next is sent: the daemon reads a chunk whole
   and solves it as one epoch, so the ramp's epochs, and the state it
   leaves, follow from the seed and not from timing. The ramp's solve
   cost still depends on the seed: a few of its warm epochs can take
   thousands of iterations. *)
let ramp_chunk = 10

let rec chunks = function
  | [] -> []
  | l ->
    let chunk = List.filteri (fun i _ -> i < ramp_chunk) l in
    chunk :: chunks (List.filteri (fun i _ -> i >= ramp_chunk) l)

(* Set-up: start the daemon, connect, subscribe, send the ramp and wait
   for the push that covers its last event. *)
let open_session ~exe sc ramp =
  let daemon = start_daemon exe in
  match connect daemon.port with
  | exception e ->
    kill_daemon daemon;
    raise e
  | conn ->
    let s =
      {
        daemon;
        conn;
        pushes = Queue.create ();
        covered = 0;
        sent = 0;
        gids = Queue.create ();
        errors = 0;
        live = Array.make 256 0;
        n_live = 0;
      }
    in
    send conn (Protocol.encode_command Protocol.Subscribe);
    (match Protocol.decode_reply (await_reply s) with
    | Ok _ -> ()
    | Error _ -> s.errors <- s.errors + 1);
    List.iter
      (fun chunk ->
        send conn (String.concat "\n" (List.map (encode sc s) chunk));
        s.sent <- s.sent + List.length chunk;
        List.iter (fun ev -> settle s ev (Protocol.decode_reply (await_reply s))) chunk;
        await_cover s)
      (chunks (Array.to_list ramp));
    s

let close_session s =
  let rss = peak_rss_mb (Some s.daemon.pid) in
  (match send s.conn (Protocol.encode_command Protocol.Shutdown) with
  | () -> ( try ignore (await_reply s) with Failure _ | Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ());
  (try Unix.close s.conn.fd with Unix.Unix_error _ -> ());
  reap s.daemon;
  rss

type sample = { alloc : float; reply : float; push_lag : float }

(* The timed closed loop. With [spans], records one request span per
   event with the protocol calls and the two halves of its wait. *)
let closed_loop sc s timed ~spans =
  let n = Array.length timed in
  let samples = Array.make n { alloc = 0.; reply = 0.; push_lag = 0. } in
  let t0 = now () in
  Array.iteri
    (fun req ev ->
      match spans with
      | None ->
        let line = encode sc s ev in
        let ts = now () in
        send s.conn line;
        s.sent <- s.sent + 1;
        let r = await_reply s in
        let tr = now () in
        settle s ev (Protocol.decode_reply r);
        await_cover s;
        let tp = now () in
        samples.(req) <- { alloc = tp -. ts; reply = tr -. ts; push_lag = tp -. tr }
      | Some sp ->
        let root = Spans.open_ sp ~name:"request" ~parent:(-1) ~req in
        let e = Spans.open_ sp ~name:"protocol.encode" ~parent:root ~req in
        let line = encode sc s ev in
        Spans.finish sp e;
        let ts = now () in
        send s.conn line;
        s.sent <- s.sent + 1;
        let r = await_reply s in
        let tr = now () in
        let d = Spans.open_ sp ~name:"protocol.reply_decode" ~parent:root ~req in
        let reply = Protocol.decode_reply r in
        Spans.finish sp d;
        settle s ev reply;
        await_cover s;
        let tp = now () in
        ignore (Spans.add sp ~name:"server.reply" ~parent:root ~req ~start:ts ~stop:tr);
        ignore (Spans.add sp ~name:"server.push_lag" ~parent:root ~req ~start:tr ~stop:tp);
        Spans.finish sp root;
        (* the server-side parse of the same line, outside the wait *)
        let d = Spans.open_ sp ~name:"protocol.decode" ~parent:root ~req in
        ignore (Protocol.decode_command line);
        Spans.finish sp d;
        samples.(req) <- { alloc = tp -. ts; reply = tr -. ts; push_lag = tp -. tr })
    timed;
  (samples, now () -. t0)

(* ------------------------------------------------------------------ *)
(* The in-process replica of the server's epochs. *)

type replica_stats = {
  iterations : int array;  (* per epoch, ramp included *)
  gids_match : bool;
  final_ok : bool;  (* last allocation KKT <= tol and feasible *)
  steps : int;  (* timed epochs only, below *)
  checks : int;
  minor_words : float;
  rounds : int;
  probes : int;
  flows : Fbuf.t;
  link_frac : Fbuf.t;
  nnz : Fbuf.t;
}

(* Replays [events] (ramp then timed) in the epochs the pushes report.
   Epochs at index >= [first_timed] are the timed ones: those get spans
   (when given) and per-layer accounting. *)
let replay sc (events : Scenario.event array) (pushes : push array) server_gids
    ~first_timed ~spans =
  let problem = Problem.create_groups ~caps:sc.Scenario.caps ~groups:[||] in
  let params = Xwi_core.default_params in
  let state = ref None in
  let live = ref (Array.make 256 0) and n_live = ref 0 in
  let gids = ref [] in
  let next_ev = ref 0 in
  let steps = ref 0 and checks = ref 0 and minor = ref 0. in
  let rounds = ref 0 and probes = ref 0 in
  let flows = Fbuf.create () and link_frac = Fbuf.create () and nnz = Fbuf.create () in
  let n_links = Array.length sc.Scenario.caps in
  let span name ~parent ~req f =
    match spans with
    | Some sp when req >= 0 ->
      let i = Spans.open_ sp ~name ~parent ~req in
      let v = f () in
      Spans.finish sp i;
      v
    | Some _ | None -> f ()
  in
  let apply ~parent ~req = function
    | Scenario.Arrive i ->
      let gid =
        span "problem.delta" ~parent ~req (fun () ->
            Problem.add_group problem
              {
                Problem.utility = Protocol.utility utility;
                paths = [ sc.Scenario.path_pool.(i) ];
              })
      in
      gids := gid :: !gids;
      if !n_live = Array.length !live then begin
        let grown = Array.make (2 * !n_live) 0 in
        Array.blit !live 0 grown 0 !n_live;
        live := grown
      end;
      !live.(!n_live) <- gid;
      incr n_live
    | Scenario.Depart i ->
      let gid = !live.(i) in
      !live.(i) <- !live.(!n_live - 1);
      decr n_live;
      span "problem.delta" ~parent ~req (fun () -> Problem.remove_group problem gid)
  in
  let epoch k (p : push) =
    let timed = k >= first_timed in
    let req = if timed then k - first_timed else -1 in
    let root =
      match spans with
      | Some sp when timed -> Spans.open_ sp ~name:"engine.epoch" ~parent:(-1) ~req
      | Some _ | None -> -1
    in
    for _ = 1 to p.events do
      apply ~parent:root ~req events.(!next_ev);
      incr next_ev
    done;
    span "problem.commit" ~parent:root ~req (fun () -> Problem.commit problem);
    let iters =
      if Problem.n_flows problem = 0 then begin
        state := None;
        0
      end
      else begin
        let st =
          match !state with
          | Some old ->
            span "xwi_core.resize" ~parent:root ~req (fun () -> Xwi_core.resize problem old)
          | None -> span "xwi_core.init" ~parent:root ~req (fun () -> Xwi_core.init problem)
        in
        state := Some st;
        let rec loop iter =
          let worst =
            span "kkt.check" ~parent:root ~req (fun () ->
                Kkt.worst
                  (Kkt.check problem ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices))
          in
          if timed then incr checks;
          if worst <= tol || iter >= max_iters then iter
          else begin
            (match spans with
            | Some sp when timed ->
              let i = Spans.open_ sp ~name:"xwi_core.step" ~parent:root ~req in
              let w0 = Gc.minor_words () in
              Xwi_core.step problem params st;
              minor := !minor +. (Gc.minor_words () -. w0);
              Spans.finish sp i
            | Some _ | None -> Xwi_core.step problem params st);
            if timed then incr steps;
            loop (iter + 1)
          end
        in
        loop 0
      end
    in
    (match spans with Some sp when timed -> Spans.finish sp root | Some _ | None -> ());
    if timed then begin
      (* traffic record and a water-fill probe at the epoch's final
         weights, outside the epoch span *)
      let nf = Problem.n_flows problem in
      Fbuf.add flows (float_of_int nf);
      let busy = ref 0 and z = ref 0 in
      for l = 0 to n_links - 1 do
        if Array.length (Problem.link_flows problem l) > 0 then incr busy
      done;
      for f = 0 to nf - 1 do
        z := !z + Problem.path_len problem f
      done;
      Fbuf.add link_frac (float_of_int !busy /. float_of_int n_links);
      Fbuf.add nnz (float_of_int !z);
      match (spans, !state) with
      | Some sp, Some st ->
        let inc = Problem.incidence problem in
        let ws = Maxmin.sparse_workspace inc in
        let wv = Incidence.vec_of_array st.Xwi_core.weights in
        let rv = Incidence.vec nf in
        let i = Spans.open_ sp ~name:"maxmin.solve_sparse" ~parent:root ~req in
        Maxmin.solve_sparse ws inc ~weights:wv ~rates:rv;
        Spans.finish sp i;
        rounds := !rounds + Maxmin.sparse_rounds ws;
        incr probes
      | _, _ -> ()
    end;
    iters
  in
  let iterations = Array.mapi epoch pushes in
  let final_ok =
    match !state with
    | None -> Problem.n_flows problem = 0
    | Some st ->
      Kkt.worst (Kkt.check problem ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices)
      <= tol
      && Problem.feasible problem ~rates:st.Xwi_core.rates
  in
  {
    iterations;
    gids_match = List.equal Int.equal (List.rev !gids) server_gids;
    final_ok;
    steps = !steps;
    checks = !checks;
    minor_words = !minor;
    rounds = !rounds;
    probes = !probes;
    flows;
    link_frac;
    nnz;
  }

(* ------------------------------------------------------------------ *)

type pass = {
  setup_s : float;
  samples : sample array;
  wall : float;
  rss : float;
  pushes : push array;
  gids : int list;
  errors : int;
  covered_ok : bool;
  ramp_epochs : int;
}

let session_pass ~exe sc ramp timed ~setups ~spans =
  let setup_s, s =
    timed_median setups ~discard:(fun s -> ignore (close_session s : float))
      (fun () -> open_session ~exe sc ramp)
  in
  match
    let ramp_epochs = Queue.length s.pushes in
    let samples, wall = closed_loop sc s timed ~spans in
    (ramp_epochs, samples, wall)
  with
  | exception e ->
    (try Unix.close s.conn.fd with Unix.Unix_error _ -> ());
    kill_daemon s.daemon;
    raise e
  | ramp_epochs, samples, wall ->
    let rss = close_session s in
    {
      setup_s;
      samples;
      wall;
      rss;
      pushes = Array.of_seq (Queue.to_seq s.pushes);
      gids = List.of_seq (Queue.to_seq s.gids);
      errors = s.errors;
      covered_ok = s.covered = s.sent;
      ramp_epochs;
    }

let run ~exe ~seed ~events ~traced ~spans_path =
  let sc, ramp, timed = stream ~seed ~events in
  let all_events = Array.append ramp timed in
  let p = session_pass ~exe sc ramp timed ~setups:3 ~spans:None in
  let allocs = Array.map (fun x -> x.alloc) p.samples in
  let n = Array.length allocs in
  let push_checks (p : pass) tag =
    Array.to_list
      (Array.mapi
         (fun i (x : push) ->
           if i < p.ramp_epochs then
             (Printf.sprintf "%sramp epoch %d converged" tag (i + 1), x.converged)
           else
             (Printf.sprintf "%sepoch %d converged, one event" tag (i + 1),
              x.converged && x.events = 1))
         p.pushes)
    @ [
        (tag ^ "no error replies", p.errors = 0);
        (tag ^ "pushes cover every event", p.covered_ok);
      ]
  in
  let replica spans (p : pass) =
    replay sc all_events p.pushes p.gids ~first_timed:p.ramp_epochs ~spans
  in
  let replica_checks tag (p : pass) (r : replica_stats) =
    let server = Array.map (fun (x : push) -> x.iterations) p.pushes in
    [
      (tag ^ "replica iteration sequence equals the server's pushes",
       Array.length server = Array.length r.iterations
       && Array.for_all2 Int.equal server r.iterations);
      (tag ^ "replica gids equal the server's", r.gids_match);
      (tag ^ "final replica allocation KKT <= 1e-6 and feasible", r.final_ok);
    ]
  in
  let r0 = replica None p in
  let checks = push_checks p "" @ replica_checks "" p r0 in
  let end_to_end =
    [
      metric "setup_s" "s" p.setup_s ~samples:3;
      metric "op_p50_ms" "ms" (median allocs *. 1e3) ~samples:n;
      metric "ops_per_s" "1/s" (float_of_int n /. p.wall) ~samples:n;
      metric "peak_rss_mb" "MB" p.rss;
    ]
  in
  let workload_metrics =
    [
      metric "setup_s" "s" p.setup_s ~samples:3;
      metric "alloc_p50_ms" "ms" (median allocs *. 1e3) ~samples:n;
      metric "alloc_p99_ms" "ms" (percentile allocs 99. *. 1e3) ~samples:n;
      metric "events_per_s" "events/s" (float_of_int n /. p.wall) ~samples:n;
      metric "peak_rss_mb" "MB" p.rss;
    ]
  in
  let per_layer, checks =
    if not traced then ([], checks)
    else begin
      let sp = Spans.create () in
      let t = session_pass ~exe sc ramp timed ~setups:1 ~spans:(Some sp) in
      let r = replica (Some sp) t in
      Spans.write sp spans_path;
      let same_counts =
        Array.length t.pushes = Array.length p.pushes
        && Array.for_all2 (fun (a : push) (b : push) -> a.iterations = b.iterations)
             t.pushes p.pushes
      in
      let ms xs q = percentile xs q *. 1e3 in
      let replies = Array.map (fun x -> x.reply) t.samples in
      let lags = Array.map (fun x -> x.push_lag) t.samples in
      let us name = median (Spans.durations sp name) *. 1e6 in
      let epoch_walls = Spans.durations sp "engine.epoch" in
      let epoch_total = sum epoch_walls in
      let steps_per_epoch =
        floats_of_ints (Array.sub r.iterations t.ramp_epochs (Array.length r.iterations - t.ramp_epochs))
      in
      let fi = float_of_int in
      let layer =
        [
          metric "server.reply_ms_p50" "ms" (ms replies 50.) ~samples:n;
          metric "server.reply_ms_p99" "ms" (ms replies 99.) ~samples:n;
          metric "server.push_lag_ms_p50" "ms" (ms lags 50.) ~samples:n;
          metric "server.push_lag_ms_p99" "ms" (ms lags 99.) ~samples:n;
          metric "protocol.encode_us" "us" (us "protocol.encode") ~samples:n;
          metric "protocol.decode_us" "us" (us "protocol.decode") ~samples:n;
          metric "protocol.reply_decode_us" "us" (us "protocol.reply_decode") ~samples:n;
          metric "problem.delta_us" "us" (us "problem.delta") ~samples:n;
          metric "problem.commit_us" "us" (us "problem.commit") ~samples:n;
          metric "xwi_core.resize_us" "us" (us "xwi_core.resize") ~samples:n;
          metric "xwi_core.step_us" "us" (us "xwi_core.step") ~samples:r.steps;
          metric "xwi_core.steps" "count" (fi r.steps);
          metric "xwi_core.steps_p50" "count" (median steps_per_epoch) ~samples:n;
          metric "xwi_core.steps_p99" "count" (percentile steps_per_epoch 99.) ~samples:n;
          metric "kkt.check_us" "us" (us "kkt.check") ~samples:r.checks;
          metric "kkt.checks" "count" (fi r.checks);
          metric "engine.epoch_ms_p50" "ms" (percentile epoch_walls 50. *. 1e3) ~samples:n;
          metric "engine.epoch_ms_p99" "ms" (percentile epoch_walls 99. *. 1e3) ~samples:n;
          metric "xwi_core.step_share" "frac" (Spans.total sp "xwi_core.step" /. epoch_total);
          metric "kkt.check_share" "frac" (Spans.total sp "kkt.check" /. epoch_total);
          metric "gc.minor_bytes_per_step" "B/step"
            (r.minor_words *. fi (Sys.word_size / 8) /. fi (Stdlib.max 1 r.steps));
          metric "maxmin.solve_sparse_us" "us" (us "maxmin.solve_sparse") ~samples:r.probes;
          metric "maxmin.rounds" "count" (fi r.rounds /. fi (Stdlib.max 1 r.probes))
            ~samples:r.probes;
          metric "trace_overhead_frac" "frac" ((t.wall /. p.wall) -. 1.);
          metric "traffic.live_flows_mean" "count" (mean (Fbuf.to_array r.flows));
          metric "traffic.active_link_frac" "frac" (mean (Fbuf.to_array r.link_frac));
          metric "traffic.flows" "count"
            (fi
               (Array.fold_left
                  (fun a ev -> match ev with Scenario.Arrive _ -> a + 1 | Scenario.Depart _ -> a)
                  0 all_events));
          metric "traffic.nnz" "count" (mean (Fbuf.to_array r.nnz));
        ]
      in
      ( layer,
        checks
        @ push_checks t "traced: "
        @ replica_checks "traced: " t r
        @ [ ("traced pass repeats the untraced iteration counts", same_counts) ] )
    end
  in
  {
    end_to_end;
    workload_metrics;
    per_layer;
    checks;
    notes =
      [
        ("ramp_events", string_of_int (Array.length ramp));
        ("timed_events", string_of_int n);
        ("epoch_iterations",
         String.concat "," (Array.to_list (Array.map (fun (x : push) -> string_of_int x.iterations) p.pushes)));
      ];
  }
