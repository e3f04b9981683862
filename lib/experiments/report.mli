(** Structured experiment results.

    Every experiment produces a {!t}: a titled table (column schema +
    typed rows) plus free-form note lines for the headline numbers and
    paper comparisons. Formatting lives here, in the three renderers —
    experiments themselves are pure data producers, which is what lets
    {!Runner} execute them on worker domains and still merge output
    deterministically (a report renders to the same bytes no matter
    where or when it ran). *)

type cell =
  | Text of string
  | Int of int
  | Float of float
      (** rendered with ["%.6g"] in text, ["%.12g"] in CSV, exactly (as
          {!Nf_util.Json} prints numbers) in JSON *)

type t = {
  title : string;
  columns : string list;  (** header of the table; every row must match *)
  rows : cell list list;
  notes : string list;  (** headline numbers, paper quotes, caveats *)
}

val make :
  title:string -> columns:string list -> ?notes:string list -> cell list list -> t
(** @raise Invalid_argument if a row's width differs from [columns]. *)

val text : string -> cell

val int : int -> cell

val float : float -> cell

val float_us : float -> cell
(** Seconds rendered as microseconds (the convention for convergence
    times throughout the paper): [float_us 3.35e-4 = Float 335.]. *)

val equal : t -> t -> bool
(** Structural equality; NaN cells compare equal to themselves (so two
    runs of the same seeded experiment compare equal). *)

val pp : Format.formatter -> t -> unit
(** Aligned plain-text table: title, header, rows, then notes. *)

val to_text : t -> string

val to_json : t -> Nf_util.Json.t
(** [{"title":...,"columns":[...],"rows":[[...]],"notes":[...]}].
    Non-finite floats print as [null]. *)

val to_csv : t -> string
(** RFC-4180-style: header line, one line per row; notes appended as
    [# ...] comment lines. *)
