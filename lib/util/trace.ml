type kind =
  | Enqueue
  | Dequeue
  | Drop
  | EcnMark
  | PktSend
  | PktRecv
  | RateUpdate
  | PriceUpdate
  | FlowStart
  | FlowDone
  | XwiIter
  | XwiResidual
  | XwiNonconverged

let kind_index = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Drop -> 2
  | EcnMark -> 3
  | PktSend -> 4
  | PktRecv -> 5
  | RateUpdate -> 6
  | PriceUpdate -> 7
  | FlowStart -> 8
  | FlowDone -> 9
  | XwiIter -> 10
  | XwiResidual -> 11
  | XwiNonconverged -> 12

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Drop -> "drop"
  | EcnMark -> "ecn_mark"
  | PktSend -> "pkt_send"
  | PktRecv -> "pkt_recv"
  | RateUpdate -> "rate_update"
  | PriceUpdate -> "price_update"
  | FlowStart -> "flow_start"
  | FlowDone -> "flow_done"
  | XwiIter -> "xwi_iter"
  | XwiResidual -> "xwi_residual"
  | XwiNonconverged -> "xwi_nonconverged"

let all_kinds =
  [
    Enqueue;
    Dequeue;
    Drop;
    EcnMark;
    PktSend;
    PktRecv;
    RateUpdate;
    PriceUpdate;
    FlowStart;
    FlowDone;
    XwiIter;
    XwiResidual;
    XwiNonconverged;
  ]

type event = {
  time : float;
  kind : kind;
  subject : int;
  value : float;
  aux : float;
}

let dummy_event =
  { time = 0.; kind = Enqueue; subject = 0; value = 0.; aux = Float.nan }

type t = {
  mask : int;  (* bit per kind; 0 = fully disabled *)
  subjects : (int, unit) Hashtbl.t option;  (* None = all subjects *)
  buf : event array;  (* ring / batch buffer, capacity = length *)
  mutable head : int;  (* index of the oldest buffered event (ring mode) *)
  mutable len : int;  (* buffered events *)
  mutable total : int;  (* accepted since creation *)
  mutable out : out_channel option;
}

let null =
  {
    mask = 0;
    subjects = None;
    buf = [||];
    head = 0;
    len = 0;
    total = 0;
    out = None;
  }

let make ?(capacity = 65536) ?kinds ?subjects ?path () =
  if capacity <= 0 then invalid_arg "Trace.make: capacity must be positive";
  let mask =
    match kinds with
    | None -> (1 lsl List.length all_kinds) - 1
    | Some ks -> List.fold_left (fun m k -> m lor (1 lsl kind_index k)) 0 ks
  in
  let subjects =
    match subjects with
    | None -> None
    | Some ss ->
      let tbl = Hashtbl.create (List.length ss) in
      List.iter (fun s -> Hashtbl.replace tbl s ()) ss;
      Some tbl
  in
  let out = Option.map open_out path in
  { mask; subjects; buf = Array.make capacity dummy_event; head = 0; len = 0;
    total = 0; out }

let on t kind = t.mask land (1 lsl kind_index kind) <> 0

let event_to_jsonl ev =
  let aux = if Float.is_nan ev.aux then [] else [ ("aux", Json.Num ev.aux) ] in
  Json.to_string
    (Json.Obj
       (("time", Json.Num ev.time)
       :: ("kind", Json.Str (kind_name ev.kind))
       :: ("subject", Json.Num (float_of_int ev.subject))
       :: ("value", Json.Num ev.value)
       :: aux))

let flush t =
  match t.out with
  | None -> ()
  | Some oc ->
    let cap = Array.length t.buf in
    for i = 0 to t.len - 1 do
      output_string oc (event_to_jsonl t.buf.((t.head + i) mod cap));
      output_char oc '\n'
    done;
    t.head <- 0;
    t.len <- 0;
    Stdlib.flush oc

let store t ev =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    match t.out with
    | Some _ -> flush t
    | None ->
      (* Ring: drop the oldest. *)
      t.head <- (t.head + 1) mod cap;
      t.len <- t.len - 1
  end;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- ev;
  t.len <- t.len + 1;
  t.total <- t.total + 1

let emit t kind ~subject ~time ?(aux = Float.nan) value =
  if on t kind then
    let pass =
      match t.subjects with
      | None -> true
      | Some tbl -> Hashtbl.mem tbl subject
    in
    if pass then store t { time; kind; subject; value; aux }

let emitted t = t.total

let events t =
  let cap = Array.length t.buf in
  List.init t.len (fun i -> t.buf.((t.head + i) mod cap))

let close t =
  flush t;
  match t.out with
  | None -> ()
  | Some oc ->
    close_out oc;
    t.out <- None

let default_sink = ref null

let default () = !default_sink

let set_default t = default_sink := t
