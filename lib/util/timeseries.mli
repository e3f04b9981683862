(** Append-only time series of (time, value) samples.

    Used to record per-flow rates, queue occupancies and prices during
    simulations, and to render the time-series figures (4b/4c, 10) as
    text. Samples must be appended in non-decreasing time order. *)

type t

val create : ?name:string -> unit -> t

val name : t -> string

val add : t -> time:float -> float -> unit
(** @raise Invalid_argument if [time] precedes the last sample. *)

val length : t -> int

val is_empty : t -> bool

val last : t -> (float * float) option

val to_list : t -> (float * float) list

val value_at : t -> float -> float option
(** Sample-and-hold interpolation: the value of the most recent sample at
    or before the given time; [None] before the first sample. *)

val smooth : t -> tau:float -> t
(** A new series obtained by running a timed EWMA filter (time constant
    [tau]) over the samples — the measurement filter of §6.1. NaN
    samples are skipped; outputs before the first non-NaN sample are
    NaN. *)

val mean_over : t -> t0:float -> t1:float -> float option
(** Time-weighted mean of the sample-and-hold signal over [\[t0, t1\]];
    [None] if the series has no sample at or before [t0]. *)

val resample : t -> t0:float -> t1:float -> dt:float -> (float * float) list
(** Sample-and-hold values on the regular grid [t0, t0+dt, ... <= t1];
    points before the first sample are dropped. *)
