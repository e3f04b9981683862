(** The repository's one JSON codec.

    Every JSON artefact goes through this module: the paper-figure
    reports, run records, metrics dumps, traces, diagnostics postmortems,
    bench and bench-diff reports, lint findings, and the allocation
    service's wire protocol. Emitters build a {!t} and print it with
    {!to_string}; readers (the serve protocol, the bench-diff gate) use
    {!parse}. No external dependency: the toolchain image has no yojson.

    There is one output format: compact (no spaces, no newlines), object
    keys in insertion order, integral floats below 1e15 printed exactly
    as integers, every other finite float with [%.17g] so it round-trips,
    and NaN and ±∞ as [null] (JSON has no non-finite numbers). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** insertion order preserved *)

val parse : string -> (t, string) result
(** Parse one complete JSON document; trailing garbage (other than
    whitespace) is an error. Error messages start with the 1-based
    [line L, column C] of the offending byte. *)

val to_string : t -> string
(** The compact rendering described above. Strings are escaped byte-wise:
    quote and backslash, short escapes for newline, carriage return and
    tab, [\u00XX] for other control bytes; bytes >= 0x80 pass through,
    so UTF-8 text stays UTF-8. *)

(** {2 Accessors} — total, for decoding. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj] ([None] on absence or a
    non-object). *)

val to_float : t -> float option

val to_int : t -> int option
(** [Num] with an integral value in [int] range. *)

val to_str : t -> string option

val to_list : t -> t list option

val obj_int : string -> t -> int option
(** [member] composed with [to_int]; same for the others. *)

val obj_float : string -> t -> float option

val obj_str : string -> t -> string option

val obj_list : string -> t -> t list option
