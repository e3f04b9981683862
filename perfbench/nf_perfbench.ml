(* One benchmark run: one workload, one seed, traced or not. Prints a
   table of every metric (with unit and sample count), then, as the last
   line of standard output, the result object

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   whose metrics are the end-to-end set untraced and the per-layer set
   traced (see README.md). Exits non-zero when any output check fails.
   Normally started by perfbench/run.py, which builds this binary and
   nf_run first. *)

open Common

(* The end-to-end metrics every workload reports, as in BENCHMARK.json. *)
let end_to_end_names = [ "setup_s"; "op_p50_ms"; "ops_per_s"; "peak_rss_mb" ]

(* The per-layer catalogue: every traced run reports all of it; a layer a
   workload does not load reads 0 there. *)
let per_layer_catalogue =
  [
    ("server.reply_ms_p50", "ms");
    ("server.reply_ms_p99", "ms");
    ("server.push_lag_ms_p50", "ms");
    ("server.push_lag_ms_p99", "ms");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("protocol.reply_decode_us", "us");
    ("problem.delta_us", "us");
    ("problem.commit_us", "us");
    ("problem.create_ms", "ms");
    ("xwi_core.init_ms", "ms");
    ("xwi_core.resize_us", "us");
    ("xwi_core.step_us", "us");
    ("xwi_core.steps", "count");
    ("xwi_core.steps_p50", "count");
    ("xwi_core.steps_p99", "count");
    ("kkt.check_us", "us");
    ("kkt.checks", "count");
    ("engine.epoch_ms_p50", "ms");
    ("engine.epoch_ms_p99", "ms");
    ("xwi_core.step_share", "frac");
    ("kkt.check_share", "frac");
    ("gc.minor_bytes_per_step", "B/step");
    ("maxmin.solve_sparse_us", "us");
    ("maxmin.rounds", "count");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.heap_depth_max", "count");
    ("sim.dispatch_s", "s");
    ("network.pkt_arrive_s", "s");
    ("network.link_tx_s", "s");
    ("network.price_update_s", "s");
    ("network.host_s", "s");
    ("xwi_core.solve_s", "s");
    ("network.pkts_forwarded", "count");
    ("network.pkts_delivered", "count");
    ("network.drops", "count");
    ("network.ecn_marks", "count");
    ("gc.alloc_bytes_per_event", "B/event");
    ("traffic.live_flows_mean", "count");
    ("traffic.active_link_frac", "frac");
    ("traffic.flows", "count");
    ("traffic.nnz", "count");
    ("trace_overhead_frac", "frac");
  ]

let workloads = [ "serve-churn"; "fluid-cold"; "packet-fabric" ]

(* Work per run, fixed by --seconds alone so that every count repeats
   exactly for a given seed. Sized so the measured phase lasts about
   --seconds on a 2-core 2.1 GHz x86 host. *)
let serve_events seconds = 20 * seconds

let fluid_instances seconds = 12 * seconds

let packet_reps seconds = Stdlib.max 2 (seconds / 2)

let usage =
  "nf_perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon NF_RUN \
   --out-dir DIR [--rev REV] [--src-digest HEX]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let daemon = ref "" and out_dir = ref "." and rev = ref "unknown" in
  let src_digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--daemon", Arg.Set_string daemon, "PATH nf_run binary (serve-churn)");
      ("--out-dir", Arg.Set_string out_dir, "DIR where records and spans go");
      ("--rev", Arg.Set_string rev, "REV git revision for the record");
      ("--src-digest", Arg.Set_string src_digest, "HEX source digest for the record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("nf_perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  let base = Printf.sprintf "%s-seed%d" !workload !seed in
  let spans_path = Filename.concat !out_dir ("spans-" ^ base ^ ".jsonl") in
  let o =
    match !workload with
    | "serve-churn" ->
      Serve_churn.run ~exe:!daemon ~seed:!seed ~events:(serve_events !seconds) ~traced
        ~spans_path
    | "fluid-cold" ->
      Fluid_cold.run ~seed:!seed ~instances:(fluid_instances !seconds) ~traced ~spans_path
    | _ -> Packet_fabric.run ~seed:!seed ~reps:(packet_reps !seconds) ~traced ~spans_path
  in
  let reported =
    if traced then
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun m -> String.equal m.name name) o.per_layer with
          | Some m -> m
          | None -> metric name unit_ 0. ~samples:0)
        per_layer_catalogue
    else List.filter (fun m -> List.mem m.name end_to_end_names) o.end_to_end
  in
  let unknown =
    List.filter (fun m -> not (List.mem_assoc m.name per_layer_catalogue)) o.per_layer
    @ List.filter (fun m -> not (List.mem m.name end_to_end_names)) o.end_to_end
  in
  let checks =
    o.checks
    @ List.map (fun m -> ("metric " ^ m.name ^ " is in the catalogue", false)) unknown
    @ List.map
        (fun m -> ("metric " ^ m.name ^ " is finite", Float.is_finite m.value))
        (reported @ o.workload_metrics)
  in
  let attempted = List.length checks in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let workload_metrics =
    o.workload_metrics
    @ [
        metric "failed_frac" "fraction"
          (float_of_int failed /. float_of_int (Stdlib.max 1 attempted))
          ~samples:attempted;
      ]
  in
  let fingerprint =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("seconds", string_of_int !seconds);
      ("trace", string_of_int !trace);
      ("rev", !rev);
      ("src_digest", !src_digest);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("profile", Build_profile.name);
    ]
  in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let json_str s = "\"" ^ String.escaped s ^ "\"" in
  let metric_json m =
    Printf.sprintf "{\"value\": %s, \"unit\": %s, \"samples\": %d}" (num m.value)
      (json_str m.unit_) m.samples
  in
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let metrics_obj ms = obj (List.map (fun m -> json_str m.name ^ ": " ^ metric_json m) ms) in
  (* the record: everything, with the fingerprint, for later comparison *)
  let record =
    obj
      ([ json_str "fingerprint" ^ ": "
         ^ obj (List.map (fun (k, v) -> json_str k ^ ": " ^ json_str v) fingerprint);
         json_str "metrics" ^ ": " ^ metrics_obj reported;
         json_str "workload_metrics" ^ ": " ^ metrics_obj workload_metrics;
         json_str "notes" ^ ": " ^ obj (List.map (fun (k, v) -> json_str k ^ ": " ^ json_str v) o.notes);
         json_str "failed_checks" ^ ": ["
         ^ String.concat ", " (List.filter_map (fun (c, ok) -> if ok then None else Some (json_str c)) checks)
         ^ "]";
         json_str "attempted" ^ ": " ^ string_of_int attempted;
         json_str "failed" ^ ": " ^ string_of_int failed ])
  in
  let record_path =
    Filename.concat !out_dir (Printf.sprintf "result-%s-trace%d.json" base !trace)
  in
  let oc = open_out record_path in
  output_string oc (record ^ "\n");
  close_out oc;
  (* the human-readable part *)
  Printf.printf "# perfbench %s seed=%d seconds=%d trace=%d\n" !workload !seed !seconds !trace;
  Printf.printf "# fingerprint: %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fingerprint));
  let row m = Printf.printf "  %-26s %16.6f %-9s n=%d\n" m.name m.value m.unit_ m.samples in
  Printf.printf "# %s metrics\n" (if traced then "per-layer" else "end-to-end");
  List.iter row reported;
  Printf.printf "# %s metrics under the workload's own names\n" !workload;
  List.iter row workload_metrics;
  List.iter (fun (c, ok) -> if not ok then Printf.printf "# FAILED check: %s\n" c) checks;
  Printf.printf "# checks: %d attempted, %d failed; record %s\n" attempted failed record_path;
  if traced then Printf.printf "# spans: %s\n" spans_path;
  let short m = json_str m.name ^ ": " ^ obj [ "\"value\": " ^ num m.value; "\"unit\": " ^ json_str m.unit_ ] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (failed = 0) attempted failed
    (obj (List.map short reported));
  exit (if failed = 0 then 0 else 1)
