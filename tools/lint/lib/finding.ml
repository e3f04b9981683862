type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let v ~file ~line ~col ~rule msg = { file; line; col; rule; msg }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

let to_string f =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col f.rule f.msg

(* Baseline keys deliberately omit line/col so a committed baseline
   survives unrelated edits that shift code up or down a file. *)
let baseline_key f = Printf.sprintf "%s [%s] %s" f.file f.rule f.msg

let json ~baseline_status f =
  let module Json = Nf_util.Json in
  Json.Obj
    [
      ("file", Json.Str f.file);
      ("line", Json.Num (float_of_int f.line));
      ("col", Json.Num (float_of_int f.col));
      ("rule", Json.Str f.rule);
      ("msg", Json.Str f.msg);
      ("baseline", Json.Str baseline_status);
    ]

let to_json ~baseline_status f = Nf_util.Json.to_string (json ~baseline_status f)
