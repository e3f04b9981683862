module Timeseries = Nf_util.Timeseries
module Json = Nf_util.Json

type channel = Queue | Price | Rate | Drops | Fct | Metric

let channel_name = function
  | Queue -> "queue"
  | Price -> "price"
  | Rate -> "rate"
  | Drops -> "drops"
  | Fct -> "fct"
  | Metric -> "metric"

let all_channels = [ Queue; Price; Rate; Drops; Fct; Metric ]

type t = {
  tables : (channel, (int, Timeseries.t) Hashtbl.t) Hashtbl.t;
  mutable done_flows : (int * float) list;  (* (flow, fct), reverse order *)
}

let create () = { tables = Hashtbl.create 8; done_flows = [] }

let table t channel =
  match Hashtbl.find_opt t.tables channel with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.replace t.tables channel tbl;
    tbl

let series t channel ~subject =
  let tbl = table t channel in
  match Hashtbl.find_opt tbl subject with
  | Some ts -> ts
  | None ->
    let ts =
      Timeseries.create
        ~name:(Printf.sprintf "%s-%d" (channel_name channel) subject)
        ()
    in
    Hashtbl.replace tbl subject ts;
    ts

let find t channel ~subject =
  match Hashtbl.find_opt t.tables channel with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl subject

let add t channel ~subject ~time v =
  Timeseries.add (series t channel ~subject) ~time v

let subjects t channel =
  match Hashtbl.find_opt t.tables channel with
  | None -> []
  | Some tbl -> List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let complete t ~flow ~at ~fct =
  t.done_flows <- (flow, fct) :: t.done_flows;
  add t Fct ~subject:flow ~time:at fct

let completions t = List.rev t.done_flows

let fct t flow = List.assoc_opt flow t.done_flows

let snapshot_metrics t ~registry ~time =
  Nf_util.Metrics.fold_values registry ~init:() ~f:(fun () ~id ~name:_ v ->
      add t Metric ~subject:id ~time v)

(* ------------------------------------------------------------------ *)
(* Export *)

let to_json t =
  let series_json channel subject =
    Json.Obj
      [
        ("subject", Json.Num (float_of_int subject));
        ( "samples",
          Json.List
            (List.map
               (fun (time, v) -> Json.List [ Json.Num time; Json.Num v ])
               (Timeseries.to_list (series t channel ~subject))) );
      ]
  in
  Json.Obj
    [
      ( "channels",
        Json.Obj
          (List.map
             (fun channel ->
               ( channel_name channel,
                 Json.List (List.map (series_json channel) (subjects t channel)) ))
             all_channels) );
    ]

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "channel,subject,time,value\n";
  List.iter
    (fun channel ->
      List.iter
        (fun subject ->
          let ts = series t channel ~subject in
          List.iter
            (fun (time, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%s,%d,%.17g,%.17g\n" (channel_name channel)
                   subject time v))
            (Timeseries.to_list ts))
        (subjects t channel))
    all_channels;
  Buffer.contents buf

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_json t ~path = write_file ~path (Json.to_string (to_json t))

let write_csv t ~path = write_file ~path (to_csv t)
