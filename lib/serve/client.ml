module Json = Nf_util.Json

type t = { fd : Unix.file_descr; buf : Buffer.t }

let connect fd = { fd; buf = Buffer.create 256 }

let connect_tcp ?(host = "127.0.0.1") port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  connect fd

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  connect fd

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_line t line =
  let data = line ^ "\n" in
  let n = String.length data in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring t.fd data !off (n - !off)
  done

(* Pull one '\n'-terminated line out of the receive buffer, reading more
   as needed. [None] on a clean EOF with an empty buffer. *)
let read_line t =
  let chunk = Bytes.create 4096 in
  let rec take () =
    let data = Buffer.contents t.buf in
    match String.index_opt data '\n' with
    | Some nl ->
      let line = String.sub data 0 nl in
      Buffer.clear t.buf;
      Buffer.add_substring t.buf data (nl + 1) (String.length data - nl - 1);
      let line =
        if String.length line > 0 && Char.equal line.[String.length line - 1] '\r'
        then String.sub line 0 (String.length line - 1)
        else line
      in
      Some line
    | None -> (
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 -> if String.length data = 0 then None else Some data
      | n ->
        Buffer.add_subbytes t.buf chunk 0 n;
        take ())
  in
  take ()

let is_push line =
  match Json.parse line with
  | Ok v -> Option.is_some (Json.member "push" v)
  | Error _ -> false

let request t cmd =
  send_line t (Protocol.encode_command cmd);
  let rec reply () =
    match read_line t with
    | None -> Error "connection closed"
    | Some line -> if is_push line then reply () else Protocol.decode_reply line
  in
  reply ()

(* ------------------------------------------------------------------ *)
(* Scripted churn driver *)

type drive_report = { driven : int; arrivals : int; departures : int }

let drive t ~rng ~scenario ~events ~target =
  let live = ref [||] in
  (* gids, dense *)
  let n_live = ref 0 in
  let push gid =
    if !n_live = Array.length !live then begin
      let grown = Array.make (Stdlib.max 16 (2 * !n_live)) 0 in
      Array.blit !live 0 grown 0 !n_live;
      live := grown
    end;
    !live.(!n_live) <- gid;
    incr n_live
  in
  let remove_at i =
    let gid = !live.(i) in
    !live.(i) <- !live.(!n_live - 1);
    decr n_live;
    gid
  in
  let arrivals = ref 0 and departures = ref 0 in
  let rec loop driven =
    if driven >= events then Ok { driven; arrivals = !arrivals; departures = !departures }
    else
      match Scenario.next_event rng scenario ~live:!n_live ~target with
      | Scenario.Arrive path_idx -> (
        let cmd =
          Protocol.Add
            {
              utility = Protocol.Pf { weight = 1. };
              paths = [ scenario.Scenario.path_pool.(path_idx) ];
            }
        in
        match request t cmd with
        | Ok fields -> (
          match List.assoc_opt "gid" fields with
          | Some g -> (
            match Json.to_int g with
            | Some gid ->
              push gid;
              incr arrivals;
              loop (driven + 1)
            | None -> Error "add reply: gid is not an int")
          | None -> Error "add reply carries no gid")
        | Error reason -> Error reason)
      | Scenario.Depart i -> (
        let gid = remove_at i in
        match request t (Protocol.Remove { gid }) with
        | Ok _ ->
          incr departures;
          loop (driven + 1)
        | Error reason -> Error reason)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Prometheus scrape *)

let scrape_metrics ?(host = "127.0.0.1") port =
  let c = connect_tcp ~host port in
  send_line c (Printf.sprintf "GET /metrics HTTP/1.1\r\nHost: %s\r" host);
  send_line c "\r";
  (* Read until EOF (the server sends Connection: close). *)
  let chunk = Bytes.create 4096 in
  let all = Buffer.create 1024 in
  Buffer.add_buffer all c.buf;
  let rec slurp () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes all chunk 0 n;
      slurp ()
  in
  slurp ();
  close c;
  let response = Buffer.contents all in
  (* Split headers from body at the blank line. *)
  let sep = "\r\n\r\n" in
  let rec find i =
    if i + String.length sep > String.length response then None
    else if String.equal (String.sub response i (String.length sep)) sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
    let body = String.sub response (i + 4) (String.length response - i - 4) in
    let status =
      match String.split_on_char ' ' response with
      | _ :: code :: _ -> code
      | _ -> "?"
    in
    if String.equal status "200" then Ok body
    else Error (Printf.sprintf "HTTP status %s" status)
  | None -> Error "malformed HTTP response"
