(** A single lint finding: a location, the rule that fired, and a
    human-readable message. *)

type t = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as the compiler prints them *)
  rule : string;  (** rule id, e.g. ["determinism"] *)
  msg : string;
}

val v : file:string -> line:int -> col:int -> rule:string -> string -> t

(** Total order: file, then line, then col, then rule, then message.
    Sorting findings with this makes lint output byte-stable across
    filesystems and traversal orders. *)
val compare : t -> t -> int

(** [file:line:col [rule] message] *)
val to_string : t -> string

(** The line format used by [lint-baseline.txt]: [file [rule] message],
    with no line/col so baselines survive unrelated edits. *)
val baseline_key : t -> string

(** One machine-readable object per finding:
    [{"file":..,"line":..,"col":..,"rule":..,"msg":..,"baseline":..}],
    where [baseline_status] is ["fresh"] or ["baselined"]. *)
val json : baseline_status:string -> t -> Nf_util.Json.t

(** {!json} printed with {!Nf_util.Json.to_string}. *)
val to_json : baseline_status:string -> t -> string
