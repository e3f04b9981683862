(** Cross-revision bench report comparison.

    Reads two [BENCH_<rev>.json] reports (as written by [bench/main.exe
    --json]) and classifies every kernel, experiment, and exported metric
    into a verdict. Kernels are throughputs — higher is better — and are
    always gated: a drop beyond [kernel_threshold] fails the diff.
    Experiment wall-clock seconds are lower-is-better and gated only when
    the caller opts in ([gate_time]): wall time on shared CI runners is
    noisy, whereas the kernel loops are pinned and repeatable. Metrics
    (counters and gauges from the embedded [Nf_util.Metrics] dump) are
    never gated — they are workload descriptors, not performance — but
    their drift is reported because it explains kernel movement (e.g. a
    converged-total drop alongside an iteration-rate gain).

    A kernel present in the old report but missing from the new one also
    fails the gate: silently dropping a benchmark is how regressions
    hide. New kernels and experiments are reported as additions. *)

type report = {
  path : string;
  rev : string;
  quick : bool;  (** Report from a [--quick] run; diffs against a full
                     run compare different workloads, so this is surfaced
                     prominently in the rendered output. *)
  jobs_parallel : int;
      (** [jobs_parallel] field, falling back to the pre-PR-7 [jobs]
          field for older reports. *)
  total_seconds : float option;
  kernels : (string * float) list;  (** name, iterations (or events)/sec *)
  experiments : (string * float) list;  (** name, wall seconds *)
  metrics : (string * float) list;
      (** counter/gauge name, value — histogram entries are skipped *)
}

val load : string -> (report, string) result

type section = Kernel | Experiment | Metric

type verdict =
  | Regression
  | Improvement
  | Stable
  | Added  (** only in the new report *)
  | Removed  (** only in the old report *)

type row = {
  section : section;
  name : string;
  old_value : float option;
  new_value : float option;
  delta_pct : float option;  (** None when either side is missing or 0 *)
  verdict : verdict;
  gated : bool;  (** a [Regression] or [Removed] verdict here fails the diff *)
}

type config = {
  kernel_threshold : float;  (** relative drop that fails a kernel; 0.10 *)
  time_threshold : float;
      (** relative rise that flags an experiment's seconds; 0.25 *)
  gate_time : bool;  (** when true, experiment regressions also gate *)
}

val default_config : config

val diff : config -> old_report:report -> new_report:report -> row list
(** Rows in report order: kernels, then experiments, then metrics. *)

val has_regressions : row list -> bool
(** True iff some gated row carries [Regression] or [Removed]. *)

val to_markdown :
  config -> old_report:report -> new_report:report -> row list -> string

val to_json :
  config -> old_report:report -> new_report:report -> row list -> Nf_util.Json.t
(** Machine-readable rendering of the same rows, one top-level object with
    [old]/[new]/[config]/[rows]/[regressions] fields. *)

val pp_summary : Format.formatter -> row list -> unit
(** One-paragraph console summary: counts by verdict plus every gated
    failure spelled out. *)
