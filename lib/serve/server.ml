module Metrics = Nf_util.Metrics
module Trace = Nf_util.Trace
module Json = Nf_util.Json

type addr = Tcp of int | Unix_sock of string

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes received, not yet split into lines *)
  mutable subscribed : bool;
  mutable closing : bool;
}

type t = {
  engine : Engine.t;
  listen_fd : Unix.file_descr;
  bound : addr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable clients : client list;
  mutable running : bool;
  mutable trace_seen : int;  (* Trace.emitted already streamed *)
}

let create ?(backlog = 64) ~engine addr =
  let listen_fd =
    match addr with
    | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      fd
    | Unix_sock path ->
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()  (* bind will fail with EADDRINUSE; better than unlinking data *)
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
  in
  Unix.listen listen_fd backlog;
  let stop_r, stop_w = Unix.pipe () in
  {
    engine;
    listen_fd;
    bound = addr;
    stop_r;
    stop_w;
    clients = [];
    running = false;
    trace_seen = Trace.emitted (Trace.default ());
  }

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, p) -> Some p
  | Unix.ADDR_UNIX _ -> None

let stop t =
  ignore (Unix.write_substring t.stop_w "x" 0 1 : int)

(* ------------------------------------------------------------------ *)
(* Writing *)

let send c line =
  if not c.closing then begin
    let data = line ^ "\n" in
    let n = String.length data in
    let off = ref 0 in
    (try
       while !off < n do
         off := !off + Unix.write_substring c.fd data !off (n - !off)
       done
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
       c.closing <- true)
  end

let send_raw c data =
  if not c.closing then begin
    let n = String.length data in
    let off = ref 0 in
    (try
       while !off < n do
         off := !off + Unix.write_substring c.fd data !off (n - !off)
       done
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
    c.closing <- true  (* HTTP responses are one-shot *)
  end

(* ------------------------------------------------------------------ *)
(* HTTP: the Prometheus scrape endpoint shares the command port. *)

let http_response ~status ~body =
  Printf.sprintf
    "HTTP/1.1 %s\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status (String.length body) body

let serve_http c line =
  let target =
    match String.split_on_char ' ' line with _ :: t :: _ -> t | _ -> "/"
  in
  let response =
    match target with
    | "/metrics" | "/" ->
      http_response ~status:"200 OK" ~body:(Metrics.to_prometheus Metrics.global)
    | _ -> http_response ~status:"404 Not Found" ~body:"not found\n"
  in
  send_raw c response

(* ------------------------------------------------------------------ *)
(* Command execution *)

let num v = Json.Num v

let int_num v = Json.Num (float_of_int v)

let epoch_fields (e : Engine.epoch) =
  [
    ("epoch", int_num e.Engine.epoch);
    ("events", int_num e.Engine.events);
    ("iterations", int_num e.Engine.iterations);
    ("converged", Json.Bool e.Engine.converged);
    ("warm", Json.Bool e.Engine.warm);
    ("elapsed", num e.Engine.elapsed);
    ("groups", int_num e.Engine.n_groups);
    ("flows", int_num e.Engine.n_flows);
  ]

let stats_fields (s : Engine.stats) =
  [
    ("epochs", int_num s.Engine.epochs);
    ("events", int_num s.Engine.total_events);
    ("warm_epochs", int_num s.Engine.warm_epochs);
    ("cold_epochs", int_num s.Engine.cold_epochs);
    ("warm_iters", int_num s.Engine.warm_iters);
    ("cold_iters", int_num s.Engine.cold_iters);
    ("p50_latency", num s.Engine.p50_latency);
    ("p99_latency", num s.Engine.p99_latency);
    ("mean_latency", num s.Engine.mean_latency);
  ]

let exec t c line =
  match Protocol.decode_command line with
  | Error reason -> send c (Protocol.error reason)
  | Ok cmd -> (
    match cmd with
    | Protocol.Add { utility; paths } -> (
      match
        Engine.add_flow t.engine ~utility:(Protocol.utility utility) ~paths
      with
      | gid -> send c (Protocol.ok [ ("gid", int_num gid) ])
      | exception Invalid_argument reason -> send c (Protocol.error reason))
    | Protocol.Remove { gid } -> (
      match Engine.remove_flow t.engine gid with
      | () -> send c (Protocol.ok [])
      | exception Invalid_argument reason -> send c (Protocol.error reason))
    | Protocol.Set_cap { link; cap } -> (
      match Engine.set_cap t.engine link cap with
      | () -> send c (Protocol.ok [])
      | exception Invalid_argument reason -> send c (Protocol.error reason))
    | Protocol.Solve ->
      let e = Engine.solve_epoch t.engine in
      send c (Protocol.ok (epoch_fields e))
    | Protocol.Query { gid } -> (
      match Engine.group_rate t.engine gid with
      | Some rate -> send c (Protocol.ok [ ("gid", int_num gid); ("rate", num rate) ])
      | None -> send c (Protocol.error (Printf.sprintf "unknown gid %d" gid)))
    | Protocol.Stats -> send c (Protocol.ok (stats_fields (Engine.stats t.engine)))
    | Protocol.Subscribe ->
      c.subscribed <- true;
      send c (Protocol.ok [])
    | Protocol.Ping -> send c (Protocol.ok [])
    | Protocol.Shutdown ->
      send c (Protocol.ok []);
      t.running <- false)

let is_http_line line = String.length line >= 4 && String.equal (String.sub line 0 4) "GET "

let process_buffer t c =
  (* Split complete lines off the front of the receive buffer. *)
  let data = Buffer.contents c.buf in
  let rec loop start =
    if c.closing then Buffer.clear c.buf
    else
      match String.index_from_opt data start '\n' with
      | None ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf data start (String.length data - start)
      | Some nl ->
        let line =
          let raw = String.sub data start (nl - start) in
          if String.length raw > 0 && Char.equal raw.[String.length raw - 1] '\r'
          then String.sub raw 0 (String.length raw - 1)
          else raw
        in
        if is_http_line line then serve_http c line
        else if String.length line > 0 then exec t c line;
        loop (nl + 1)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Subscriber pushes *)

let push_epoch t (e : Engine.epoch) =
  let line =
    Json.to_string (Json.Obj (("push", Json.Str "epoch") :: epoch_fields e))
  in
  List.iter (fun c -> if c.subscribed then send c line) t.clients

let push_trace t =
  let sink = Trace.default () in
  let emitted = Trace.emitted sink in
  if emitted > t.trace_seen then begin
    let events = Trace.events sink in
    let fresh = emitted - t.trace_seen in
    let buffered = List.length events in
    (* The ring may have overwritten older events; stream what survives. *)
    let events =
      if buffered > fresh then
        List.filteri (fun i _ -> i >= buffered - fresh) events
      else events
    in
    t.trace_seen <- emitted;
    if List.exists (fun c -> c.subscribed) t.clients then
      List.iter
        (fun (ev : Trace.event) ->
          let line =
            Json.to_string
              (Json.Obj
                 [
                   ("push", Json.Str "trace");
                   ("time", num ev.Trace.time);
                   ("kind", Json.Str (Trace.kind_name ev.Trace.kind));
                   ("subject", int_num ev.Trace.subject);
                   ("value", num ev.Trace.value);
                   ("aux", num ev.Trace.aux);
                 ])
          in
          List.iter (fun c -> if c.subscribed then send c line) t.clients)
        events
  end

(* ------------------------------------------------------------------ *)
(* The loop *)

let close_client t c =
  c.closing <- true;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  t.clients <- List.filter (fun c' -> c' != c) t.clients

let accept_client t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    let c = { fd; buf = Buffer.create 256; subscribed = false; closing = false } in
    t.clients <- t.clients @ [ c ]
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()

let read_client t c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> close_client t c
  | n ->
    Buffer.add_subbytes c.buf chunk 0 n;
    process_buffer t c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_client t c

let run t =
  t.running <- true;
  while t.running do
    let watch = t.stop_r :: t.listen_fd :: List.map (fun c -> c.fd) t.clients in
    match Unix.select watch [] [] (-1.) with
    | readable, _, _ ->
      if List.memq t.stop_r readable then begin
        let b = Bytes.create 16 in
        ignore (Unix.read t.stop_r b 0 16 : int);
        t.running <- false
      end
      else begin
        List.iter
          (fun c -> if List.memq c.fd readable then read_client t c)
          t.clients;
        if List.memq t.listen_fd readable then accept_client t;
        (* Epoch batching: one warm solve for everything that arrived
           this round. *)
        if Engine.pending_events t.engine > 0 then begin
          let e = Engine.solve_epoch t.engine in
          push_epoch t e
        end;
        push_trace t;
        List.iter (fun c -> if c.closing then close_client t c) t.clients
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun c -> close_client t c) t.clients;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.bound with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  try Unix.close t.stop_w with Unix.Unix_error _ -> ()
