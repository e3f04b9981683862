(** Opt-in per-iteration xWI solver diagnostics.

    A [t] attaches to one {!Xwi_core.state} (explicitly via
    {!Xwi_core.set_diag}, or automatically by the init functions when a
    process-wide {!configure}d config is active — the CLI's
    [nf_run exp --diag DIR]). Each {!Xwi_core.step} on a diagnosed state
    then:

    - snapshots prices/rates before the step ({!begin_iter}),
    - derives residual norms (max relative price/rate change — the
      fixpoint convergence metric — plus the l∞/l2 price deltas and the
      worst-residual link), active-link counts, the water-fill round
      count / fill level / saturated-link count from
      {!Maxmin.sparse_workspace}, and per-shard chunk timings from
      {!Nf_util.Shard.run}'s [?timings],
    - keeps the last K iterations in a ring, tracks the
      iterations-to-ε ladder, and emits an [XwiResidual]
      {!Nf_util.Trace} event.

    On a non-converged run, {!Xwi_core} dumps a postmortem — the ring of
    recent iteration samples plus the worst-residual links — as JSONL
    ({!dump_auto}). A state without a diag pays one [match] per step;
    nothing here is on the undiagnosed hot path. *)

type sample = {
  s_iter : int;  (** 1-based iteration index within this state's life *)
  s_residual : float;
      (** max relative price/rate change — the {!Xwi_core.run_to_fixpoint}
          convergence metric *)
  s_price_delta : float;  (** max |Δ price| (l∞) *)
  s_price_l2 : float;  (** l2 norm of the price-delta vector *)
  s_worst_link : int;  (** link with the largest |Δ price|; -1 if none *)
  s_active_links : int;  (** links with a strictly positive price *)
  s_wf_rounds : int;  (** water-fill rounds of this step's max-min solve *)
  s_wf_level : float;  (** final fair-share fill level *)
  s_wf_saturated : int;  (** saturated (bottleneck) links this solve *)
  s_shard_max : float;  (** slowest price-update chunk, seconds *)
  s_shard_mean : float;  (** mean price-update chunk, seconds *)
}

type t

val create :
  ?capacity:int ->
  ?eps:float array ->
  ?trace:Nf_util.Trace.t ->
  n_links:int ->
  n_flows:int ->
  unit ->
  t
(** A diagnostics instance for one solver state shape. [capacity]
    (default 64) bounds the iteration-sample ring. [eps] (default
    [[| 1e-2; 1e-4; 1e-6; 1e-8; 1e-10 |]]) are the thresholds of the
    iterations-to-ε ladder. [trace] overrides the sink for
    [XwiResidual] events (default: {!Nf_util.Trace.default} resolved at
    emission time). *)

val begin_iter : t -> prices:float array -> rates:float array -> unit
(** Snapshot the pre-step prices and rates (called by {!Xwi_core.step}). *)

val observe :
  t ->
  prices:float array ->
  rates:float array ->
  wf_rounds:int ->
  wf_level:float ->
  wf_saturated:int ->
  shard_chunks:int ->
  unit
(** Record one completed iteration: post-step [prices]/[rates] are
    compared against the {!begin_iter} snapshots; [shard_chunks] chunk
    timings are read from {!shard_timings}. *)

val shard_timings : t -> float array
(** The scratch array to pass as {!Nf_util.Shard.run}'s [?timings]. *)

val dims : t -> int * int
(** [(n_links, n_flows)] the instance was created for. *)

val iterations : t -> int
(** Iterations observed over the instance's lifetime. *)

val samples : t -> sample list
(** The ring contents, oldest first (at most [capacity] samples). *)

val worst_links : ?n:int -> t -> (int * float) list
(** The [n] (default 8) links with the largest |Δ price| in the last
    observed iteration, delta descending (ties: link id ascending). *)

type report = {
  r_iterations : int;
  r_final_residual : float;  (** residual of the last iteration; [infinity] if none *)
  r_to_eps : (float * int) array;
      (** (ε, first iteration with residual ≤ ε; -1 if never reached) *)
}

val report : t -> report

val report_to_json : report -> Nf_util.Json.t
(** [{"iterations":..,"final_residual":..,"to_eps":[[eps,iter],...]}]; a
    non-finite residual prints as [null]. *)

val pp_report : Format.formatter -> report -> unit

val dump : ?final_residual:float -> t -> converged:bool -> path:string -> unit
(** Write the postmortem as JSONL to [path]: a [meta] line (with
    [final_residual] overriding the report's residual if given — e.g. the
    KKT residual from {!Xwi_core.run_until_kkt}), one [iter] line per
    ring sample (oldest first), a [worst_links] line naming the links
    with the largest final price residuals, and a [to_eps] line. *)

(** {2 Process-wide configuration}

    The [--diag] CLI switch installs a config; solver states created
    while one is active auto-attach a diag, and non-converged runs dump
    postmortems into the configured directory (up to the file cap). *)

type config = {
  c_ring : int;  (** ring capacity for auto-attached instances *)
  c_dir : string;  (** directory receiving postmortem JSONL files *)
  c_max_postmortems : int;  (** cap on postmortem files per configuration *)
}

val default_config : dir:string -> config
(** Ring of 64, at most 16 postmortem files. *)

val configure : config option -> unit
(** Install ([Some]) or clear ([None]) the process-wide config; resets
    the {!postmortems_written} counter. *)

val configured : unit -> config option

val attach : n_links:int -> n_flows:int -> t option
(** A fresh instance per the process-wide config, or [None] when
    unconfigured. Called by the {!Xwi_core} init functions. *)

val dump_auto : ?final_residual:float -> t -> converged:bool -> unit
(** {!dump} into the configured directory under a sequential
    [xwi_postmortem_NNNN.jsonl] name; no-op when unconfigured or at the
    file cap. *)

val postmortems_written : unit -> int
(** Postmortem files written since the last {!configure}. *)
