module Json = Nf_util.Json

type utility_spec =
  | Pf of { weight : float }
  | Alpha of { weight : float; alpha : float }
  | Fct of { size : float; eps : float }

let utility = function
  | Pf { weight } -> Nf_num.Utility.proportional_fair ~weight ()
  | Alpha { weight; alpha } -> Nf_num.Utility.alpha_fair ~weight ~alpha ()
  | Fct { size; eps } -> Nf_num.Utility.fct ~size ~eps

type command =
  | Add of { utility : utility_spec; paths : int array list }
  | Remove of { gid : int }
  | Set_cap of { link : int; cap : float }
  | Solve
  | Query of { gid : int }
  | Stats
  | Subscribe
  | Ping
  | Shutdown

(* ------------------------------------------------------------------ *)
(* Decoding *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let require what = function Some v -> Ok v | None -> Error ("missing or bad " ^ what)

let decode_utility v =
  match v with
  | None -> Ok (Pf { weight = 1. })  (* default *)
  | Some u -> (
    let weight = Option.value (Json.obj_float "weight" u) ~default:1. in
    match Json.obj_str "kind" u with
    | Some "pf" | None -> Ok (Pf { weight })
    | Some "alpha" ->
      let* alpha = require "utility.alpha" (Json.obj_float "alpha" u) in
      Ok (Alpha { weight; alpha })
    | Some "fct" ->
      let* size = require "utility.size" (Json.obj_float "size" u) in
      let eps = Option.value (Json.obj_float "eps" u) ~default:0.125 in
      Ok (Fct { size; eps })
    | Some k -> Error (Printf.sprintf "unknown utility kind %S" k))

let decode_paths v =
  let* paths = require "paths" (Json.to_list v) in
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
      let* links = require "path" (Json.to_list p) in
      let rec ids acc = function
        | [] -> Ok (List.rev acc)
        | l :: rest -> (
          match Json.to_int l with
          | Some id -> ids (id :: acc) rest
          | None -> Error "path element is not a link id")
      in
      let* ids = ids [] links in
      loop (Array.of_list ids :: acc) rest
  in
  loop [] paths

let decode_command line =
  let* v =
    match Json.parse line with Ok v -> Ok v | Error e -> Error ("bad JSON: " ^ e)
  in
  let* cmd = require "cmd" (Json.obj_str "cmd" v) in
  match cmd with
  | "add" ->
    let* utility = decode_utility (Json.member "utility" v) in
    let* field = require "paths" (Json.member "paths" v) in
    let* paths = decode_paths field in
    if List.is_empty paths then Error "paths is empty"
    else Ok (Add { utility; paths })
  | "remove" ->
    let* gid = require "gid" (Json.obj_int "gid" v) in
    Ok (Remove { gid })
  | "set_cap" ->
    let* link = require "link" (Json.obj_int "link" v) in
    let* cap = require "cap" (Json.obj_float "cap" v) in
    Ok (Set_cap { link; cap })
  | "solve" -> Ok Solve
  | "query" ->
    let* gid = require "gid" (Json.obj_int "gid" v) in
    Ok (Query { gid })
  | "stats" -> Ok Stats
  | "subscribe" -> Ok Subscribe
  | "ping" -> Ok Ping
  | "shutdown" -> Ok Shutdown
  | c -> Error (Printf.sprintf "unknown cmd %S" c)

(* ------------------------------------------------------------------ *)
(* Encoding *)

let encode_utility = function
  | Pf { weight } ->
    Json.Obj [ ("kind", Json.Str "pf"); ("weight", Json.Num weight) ]
  | Alpha { weight; alpha } ->
    Json.Obj
      [
        ("kind", Json.Str "alpha");
        ("weight", Json.Num weight);
        ("alpha", Json.Num alpha);
      ]
  | Fct { size; eps } ->
    Json.Obj
      [ ("kind", Json.Str "fct"); ("size", Json.Num size); ("eps", Json.Num eps) ]

let encode_command c =
  let obj fields = Json.to_string (Json.Obj fields) in
  match c with
  | Add { utility; paths } ->
    obj
      [
        ("cmd", Json.Str "add");
        ("utility", encode_utility utility);
        ( "paths",
          Json.List
            (List.map
               (fun p ->
                 Json.List (Array.to_list (Array.map (fun l -> Json.Num (float_of_int l)) p)))
               paths) );
      ]
  | Remove { gid } ->
    obj [ ("cmd", Json.Str "remove"); ("gid", Json.Num (float_of_int gid)) ]
  | Set_cap { link; cap } ->
    obj
      [
        ("cmd", Json.Str "set_cap");
        ("link", Json.Num (float_of_int link));
        ("cap", Json.Num cap);
      ]
  | Solve -> obj [ ("cmd", Json.Str "solve") ]
  | Query { gid } ->
    obj [ ("cmd", Json.Str "query"); ("gid", Json.Num (float_of_int gid)) ]
  | Stats -> obj [ ("cmd", Json.Str "stats") ]
  | Subscribe -> obj [ ("cmd", Json.Str "subscribe") ]
  | Ping -> obj [ ("cmd", Json.Str "ping") ]
  | Shutdown -> obj [ ("cmd", Json.Str "shutdown") ]

let ok fields = Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))

let error reason =
  Json.to_string
    (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str reason) ])

let decode_reply line =
  let* v =
    match Json.parse line with Ok v -> Ok v | Error e -> Error ("bad JSON: " ^ e)
  in
  match v with
  | Json.Obj (("ok", Json.Bool true) :: fields) -> Ok fields
  | Json.Obj fields -> (
    match List.assoc_opt "error" fields with
    | Some (Json.Str reason) -> Error reason
    | _ -> Error "reply is not ok and carries no error")
  | _ -> Error "reply is not an object"
