(* Benchmark entry point: run one workload and print its metrics.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --daemon PATH --tmp DIR

   Human-readable lines come first; the last line of standard output is
   one JSON object {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, measured untraced; with
   --trace 1 they are the per-layer ones, and the end-to-end numbers of
   the traced run are printed beside untraced ones.  run.py builds this
   program and supplies --daemon (the qvisor-cli binary) and --tmp.

   bench.exe --point WORKLOAD --seed N runs one Fig. 4 point and writes
   it, marshalled, to standard output: a Fig. 4 run starts one such
   process per point. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("events_per_s", "1/s");
    ("alloc_b_per_event", "B");
    ("peak_rss_mb", "MB");
    ("sim_s_per_s", "s/s");
    ("ctl_p50_ms", "ms");
    ("ctl_p90_ms", "ms");
    ("scrape_p50_ms", "ms");
    ("scrape_p90_ms", "ms");
  ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.busy_s", "s");
    ("sim.other_ns_per_event", "ns");
    ("setup.topology_s", "s");
    ("setup.synth_s", "s");
    ("setup.net_build_s", "s");
    ("setup.net_build_mb", "MB");
    ("sched.enqueue_ops", "count");
    ("sched.dequeue_ops", "count");
    ("sched.drops", "count");
    ("sched.enqueue_ns", "ns");
    ("sched.dequeue_ns", "ns");
    ("sched.alloc_b_per_op", "B");
    ("preproc.ops", "count");
    ("preproc.ns", "ns");
    ("transport.deliver_ops", "count");
    ("transport.deliver_ns", "ns");
    ("transport.alloc_b_per_deliver", "B");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_b_per_event", "B");
    ("ledger.recorder.ns_per_event", "ns");
    ("ledger.recorder.b_per_event", "B");
    ("ledger.slo.ns_per_event", "ns");
    ("ledger.slo.b_per_event", "B");
    ("ledger.telemetry.ns_per_event", "ns");
    ("ledger.telemetry.b_per_event", "B");
    ("ledger.perf.ns_per_event", "ns");
    ("ledger.perf.b_per_event", "B");
    ("exposition.renders", "count");
    ("exposition.render_ms", "ms");
    ("exposition.bytes", "B");
    ("perf.stage.enqueue.ops", "count");
    ("perf.stage.dequeue.ops", "count");
    ("perf.stage.preprocess.ops", "count");
    ("perf.stage.recorder.ops", "count");
    ("perf.stage.slo_audit.ops", "count");
    ("serve.handle.tenant_add_ms", "ms");
    ("serve.handle.tenant_remove_ms", "ms");
    ("serve.handle.policy_update_ms", "ms");
    ("serve.handle.status_ms", "ms");
    ("serve.loop_wait_ms", "ms");
    ("serve.metrics_body_ms", "ms");
    ("serve.metrics_bytes", "B");
    ("serve.query_body_ms", "ms");
    ("serve.query_bytes", "B");
    ("serve.snapshot_ms", "ms");
    ("serve.generator_late_ms", "ms");
    ("serve.flows_completed_ratio", "ratio");
  ]

let workloads = [ "fig4-paper-bare"; "fig4-quick-observed"; "serve-churn" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --daemon PATH --tmp DIR";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  (workload, int "seed", int "seconds", trace = 1, get "daemon", get "tmp")

(* A number as measured, with all its digits; non-finite values cannot be
   written as JSON numbers and mark the run incorrect. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--point"; workload; "--seed"; seed ] -> (
    (* One Fig. 4 point in this process, for a parent run. *)
    match (Fig4_bench.kind_of_name workload, int_of_string_opt seed) with
    | Some kind, Some seed ->
      Fig4_bench.point_main kind ~seed;
      exit 0
    | _ -> usage ())
  | _ -> ());
  let workload, seed, seconds, trace, daemon, tmp = parse_args () in
  let seconds = float_of_int (max 1 seconds) in
  let report =
    match (workload, trace) with
    | "fig4-paper-bare", false ->
      Fig4_bench.untraced Fig4_bench.Paper_bare ~seed ~seconds
    | "fig4-paper-bare", true ->
      Fig4_bench.traced Fig4_bench.Paper_bare ~seed ~seconds
    | "fig4-quick-observed", false ->
      Fig4_bench.untraced Fig4_bench.Quick_observed ~seed ~seconds
    | "fig4-quick-observed", true ->
      Fig4_bench.traced Fig4_bench.Quick_observed ~seed ~seconds
    | _, false -> Serve_bench.untraced ~exe:daemon ~tmp ~seed ~seconds
    | _, true -> Serve_bench.traced ~exe:daemon ~tmp ~seed ~seconds
  in
  let wanted = if trace then per_layer else end_to_end in
  let find name ms = List.find_opt (fun m -> m.Report.name = name) ms in
  (* A per-layer metric of a layer this workload never reaches reads 0. *)
  let metrics =
    List.map
      (fun (name, unit_) ->
        match find name (if trace then report.Report.layers else report.Report.e2e) with
        | Some m -> m
        | None -> Report.m name unit_ 0.)
      wanted
  in
  let missing =
    List.filter_map
      (fun (name, _) ->
        match find name (if trace then report.Report.layers else report.Report.e2e) with
        | Some _ -> None
        | None -> Some name)
      wanted
  in
  Printf.printf "workload %s, seed %d, %g s, trace %d\n" workload seed seconds
    (if trace then 1 else 0);
  List.iter (fun l -> Printf.printf "  %s\n" l) report.Report.notes;
  if trace then begin
    Printf.printf "end-to-end, untraced beside traced:\n";
    List.iter
      (fun (m : Report.metric) ->
        let traced =
          match find m.Report.name report.Report.traced_e2e with
          | Some t when Float.is_finite t.Report.value ->
            Printf.sprintf "%14.6g" t.Report.value
          | _ -> Printf.sprintf "%14s" "-"
        in
        Printf.printf "  %-22s %14.6g %s %s\n" m.Report.name m.Report.value
          traced m.Report.unit_)
      report.Report.e2e;
    Printf.printf "per-layer:\n"
  end
  else Printf.printf "end-to-end:\n";
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "  %-32s %16.6g %s\n" m.Report.name m.Report.value m.Report.unit_)
    metrics;
  if missing <> [] then
    Printf.printf "  not on this workload's path (reported as 0): %s\n"
      (String.concat ", " missing);
  let finite =
    List.for_all
      (fun (m : Report.metric) -> Float.is_finite m.Report.value)
      metrics
  in
  let correct = report.Report.failed = 0 && report.Report.attempted > 0 && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 report.Report.attempted) report.Report.failed
    (String.concat ", "
       (List.map
          (fun (m : Report.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Report.name
              (json_number m.Report.value) m.Report.unit_)
          metrics))
