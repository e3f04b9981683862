(** Steady-state allocation audit of the [\@nf.hot] kernels.

    Four kernels — Fheap push/top/drop, STFQ enqueue/[dequeue_exn], one
    {!Nf_num.Xwi_core.step} on a k=4 fat tree with 64 flows, and one
    {!Nf_num.Maxmin.solve_sparse} — are prebuilt, warmed past lazy
    workspace growth, and measured with
    {!Nf_util.Gcstats.bytes_per_iteration}. Each must allocate 0 bytes
    per steady-state iteration; {!budget} (1 byte/iter) absorbs only
    measurement noise — a single boxed float already costs 16 bytes.

    A fifth kernel, [network_numfabric], runs the packet simulator end to
    end (fig4a-packet's 2x2x4 leaf-spine under NUMFabric, six persistent
    flows, {!Nf_sim.Network.run} in slices) and reports bytes per
    simulator event. Packets are allocated by design, so it is held to
    {!network_limit} (48 B/event), which admits what it measures (~39
    B/event: the packets and their float stamps) but not one boxed float
    per event on top.

    Exception: dune's dev profile compiles with [-opaque], which
    disables cross-unit inlining, so the two kernels that hand raw
    floats across the Fheap library boundary (its [~key] argument and
    [top_key] result) box exactly two floats per iteration there. {!run}
    probes for that build profile and grants those two kernels
    {!boundary_limit}, and the network kernel, whose clock reads and
    event times cross the engine's library boundary, gets
    {!network_boundary_limit}. Release builds (and the CI gate, which
    runs the audit under [--profile release]) hold every per-iteration
    kernel to {!budget} and the network kernel to {!network_limit}.

    Driven by [bench/main.exe --audit-alloc] and the [test_alloc] suite.
    Run with the process-wide {!Nf_num.Diag} config cleared: an attached
    diag allocates one sample record per observed step by design (the
    xwi kernel detaches its own diag defensively). *)

type result = {
  kernel : string;
  per : string;  (** what [bytes_per_iter] is per: ["iter"] or ["event"] *)
  bytes_per_iter : float;
  limit : float;
      (** {!budget} or {!network_limit}; {!boundary_limit} or
          {!network_boundary_limit} on -opaque builds *)
}

val budget : float
(** 1.0 byte per iteration. *)

val boundary_limit : float
(** 40.0 bytes per iteration: two boundary boxes (32 B) plus headroom,
    strictly below a third box. *)

val network_limit : float
(** 48.0 bytes per simulator event (release builds). *)

val network_boundary_limit : float
(** 128.0 bytes per simulator event: the network kernel's limit on
    -opaque (dev) builds, where it measures ~114. *)

val run : ?iters:int -> unit -> result list
(** Measure every audited kernel ([iters] forwarded to
    {!Nf_util.Gcstats.bytes_per_iteration}, default 10_000; the network
    kernel always simulates the same 2 ms). *)

val ok : result list -> bool
(** Every kernel within its [limit]. *)

val pp : Format.formatter -> result list -> unit
