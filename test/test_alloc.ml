(* Runtime enforcement of the hot-path zero-allocation invariant: the
   [@nf.hot] kernels must not allocate in steady state, and the packet
   simulator's per-event path allocates little more than its packets.
   nf_lint checks the same invariant syntactically; this audit measures
   it. The audit itself knows about the dev profile's -opaque boundary
   boxing (see Alloc_audit), so the suite passes under both build
   profiles. *)

module Alloc_audit = Nf_experiments.Alloc_audit

let test_audit_within_limits () =
  let results = Alloc_audit.run ~iters:2_000 () in
  Alcotest.(check int) "five kernels audited" 5 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within limit (%.3f <= %.1f B/iter)"
           r.Alloc_audit.kernel r.Alloc_audit.bytes_per_iter
           r.Alloc_audit.limit)
        true
        (r.Alloc_audit.bytes_per_iter <= r.Alloc_audit.limit))
    results;
  Alcotest.(check bool) "ok agrees with the per-row limits" true
    (Alloc_audit.ok results);
  (* The solver kernels keep their floats inside one compilation unit, so
     they owe 0 bytes under *every* build profile — no boundary waiver. *)
  List.iter
    (fun r ->
      if r.Alloc_audit.kernel = "xwi_step"
         || r.Alloc_audit.kernel = "maxmin_solve_sparse"
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s holds the strict budget" r.Alloc_audit.kernel)
          true
          (r.Alloc_audit.bytes_per_iter <= Alloc_audit.budget))
    results

let () =
  Alcotest.run "nf_alloc"
    [
      ( "audit",
        [
          Alcotest.test_case "hot kernels steady-state clean" `Quick
            test_audit_within_limits;
        ] );
    ]
