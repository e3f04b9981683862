(* nf_benchdiff — the cross-revision bench regression gate.

   Usage: nf_benchdiff [options] OLD.json NEW.json

   Exits 0 when no gated regression is found, 1 on a gated regression,
   2 on usage or parse errors — so CI can distinguish "the code got
   slower" from "the tool could not run". *)

module Diff = Nf_benchdiff_lib.Diff

let usage =
  "nf_benchdiff [options] OLD.json NEW.json\n\
   Diff two bench reports (BENCH_<rev>.json); exit 1 on a gated regression,\n\
   2 on errors.\n\n\
   Options:"

let () =
  let kernel_threshold = ref Diff.default_config.Diff.kernel_threshold in
  let time_threshold = ref Diff.default_config.Diff.time_threshold in
  let gate_time = ref false in
  let md_out = ref "" in
  let json_out = ref "" in
  let quiet = ref false in
  let positional = ref [] in
  let spec =
    [
      ( "--kernel-threshold",
        Arg.Set_float kernel_threshold,
        "F  relative kernel-throughput drop that fails the gate (default 0.10)"
      );
      ( "--time-threshold",
        Arg.Set_float time_threshold,
        "F  relative experiment-seconds rise that flags a regression (default \
         0.25)" );
      ( "--gate-time",
        Arg.Set gate_time,
        "  also fail on experiment wall-time regressions (off by default: CI \
         wall time is noisy)" );
      ("--md", Arg.Set_string md_out, "FILE  write a markdown report");
      ("--json", Arg.Set_string json_out, "FILE  write a JSON report");
      ( "--quiet",
        Arg.Set quiet,
        "  print only failures (the exit code still carries the verdict)" );
    ]
  in
  (match
     Arg.parse spec (fun a -> positional := a :: !positional) usage
   with
  | () -> ()
  | exception Arg.Bad msg ->
      prerr_string msg;
      exit 2);
  let old_path, new_path =
    match List.rev !positional with
    | [ o; n ] -> (o, n)
    | _ ->
        prerr_endline "nf_benchdiff: expected exactly two report paths";
        prerr_endline (Arg.usage_string spec usage);
        exit 2
  in
  let load path =
    match Diff.load path with
    | Ok r -> r
    | Error msg ->
        Printf.eprintf "nf_benchdiff: %s\n" msg;
        exit 2
  in
  let old_report = load old_path in
  let new_report = load new_path in
  let cfg =
    {
      Diff.kernel_threshold = !kernel_threshold;
      time_threshold = !time_threshold;
      gate_time = !gate_time;
    }
  in
  let rows = Diff.diff cfg ~old_report ~new_report in
  let write path contents =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents)
  in
  if !md_out <> "" then
    write !md_out (Diff.to_markdown cfg ~old_report ~new_report rows);
  if !json_out <> "" then
    write !json_out
      (Nf_util.Json.to_string (Diff.to_json cfg ~old_report ~new_report rows)
      ^ "\n");
  let failed = Diff.has_regressions rows in
  if (not !quiet) || failed then
    Format.printf "%a@." Diff.pp_summary rows;
  exit (if failed then 1 else 0)
