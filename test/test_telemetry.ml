(* Tests for Engine.Telemetry: registry semantics (interning,
   accumulation, the disabled no-op registry), the snapshot JSON export,
   the sampled NDJSON trace sink (determinism under a fixed seed, line
   round-trips), and an end-to-end check that an instrumented network +
   pre-processor populate the metric names the docs promise. *)

module Tel = Engine.Telemetry

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_counter_interning () =
  let tel = Tel.create () in
  let a = Tel.counter tel "x" in
  let b = Tel.counter tel "x" in
  Tel.Counter.incr a;
  Tel.Counter.add b 4;
  (* Same name, same accumulator: both handles see all five. *)
  Alcotest.(check int) "shared accumulator" 5 (Tel.Counter.value a);
  Alcotest.(check int) "other handle agrees" 5 (Tel.Counter.value b);
  let other = Tel.counter tel "y" in
  Alcotest.(check int) "distinct name is fresh" 0 (Tel.Counter.value other)

let test_gauge_and_histogram () =
  let tel = Tel.create () in
  let g = Tel.gauge tel "g" in
  Tel.Gauge.set g 1.5;
  Tel.Gauge.set g 2.5;
  check_float "gauge keeps last" 2.5 (Tel.Gauge.value g);
  let h = Tel.histogram tel "h" in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Tel.Histogram.mean h));
  List.iter (Tel.Histogram.observe h) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check int) "count" 3 (Tel.Histogram.count h);
  check_float "mean" 2.0 (Tel.Histogram.mean h)

let test_disabled_registry () =
  let tel = Tel.disabled in
  Alcotest.(check bool) "disabled" false (Tel.is_enabled tel);
  let c = Tel.counter tel "x" in
  Tel.Counter.incr c;
  (* The handle works but is detached: a later lookup sees nothing. *)
  Alcotest.(check int) "fresh handle empty" 0
    (Tel.Counter.value (Tel.counter tel "x"));
  Tel.Gauge.set (Tel.gauge tel "g") 9.;
  Tel.Histogram.observe (Tel.histogram tel "h") 1.;
  Tel.Series.record (Tel.series tel "s") ~time:0.1 1.;
  (* Sinks refuse to attach; events are dropped silently. *)
  let path = Filename.temp_file "qvisor_tel" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Tel.attach_sink tel oc;
      Alcotest.(check bool) "not tracing" false (Tel.tracing tel);
      Tel.event tel ~time:0. ~kind:"enqueue" ();
      Alcotest.(check int) "no events" 0 (Tel.events_seen tel);
      close_out oc);
  match Tel.snapshot tel with
  | Engine.Json.Obj fields ->
    List.iter
      (fun (name, v) ->
        match v with
        | Engine.Json.Obj [] -> ()
        | _ -> Alcotest.failf "disabled snapshot has content under %s" name)
      fields
  | _ -> Alcotest.fail "snapshot not an object"

let test_attach_sink_validates_sample () =
  let tel = Tel.create () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  let path = Filename.temp_file "qvisor_tel" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Alcotest.(check bool) "negative rejected" true
        (raises (fun () -> Tel.attach_sink tel ~sample:(-0.1) oc));
      Alcotest.(check bool) "above one rejected" true
        (raises (fun () -> Tel.attach_sink tel ~sample:1.1 oc));
      close_out oc)

(* ------------------------------------------------------------------ *)
(* Snapshot                                                           *)
(* ------------------------------------------------------------------ *)

let member path json =
  List.fold_left
    (fun acc name ->
      match Option.bind acc (Engine.Json.member name) with
      | Some v -> Some v
      | None -> Alcotest.failf "missing %s" (String.concat "." path))
    (Some json) path
  |> Option.get

let test_snapshot_round_trips () =
  let tel = Tel.create () in
  Tel.Counter.add (Tel.counter tel "c") 7;
  Tel.Gauge.set (Tel.gauge tel "g") 2.5;
  let h = Tel.histogram tel "h" in
  List.iter (Tel.Histogram.observe h) [ 1.0; 2.0; 3.0 ];
  ignore (Tel.histogram tel "h_empty");
  Tel.Series.record (Tel.series tel ~bucket:1.0 "s") ~time:0.5 4.;
  (* The snapshot must serialize (empty-histogram moments are NaN and the
     serializer rejects NaN, so they have to come out as null) and parse
     back to the same values. *)
  let text = Engine.Json.to_string ~pretty:true (Tel.snapshot tel) in
  match Engine.Json.of_string text with
  | Error e -> Alcotest.failf "snapshot does not re-parse: %s" e
  | Ok snap ->
    Alcotest.(check (option int)) "counter" (Some 7)
      (Engine.Json.to_int (member [ "counters"; "c" ] snap));
    Alcotest.(check (option int)) "hist count" (Some 3)
      (Engine.Json.to_int (member [ "histograms"; "h"; "count" ] snap));
    Alcotest.(check bool) "empty hist mean is null" true
      (member [ "histograms"; "h_empty"; "mean" ] snap = Engine.Json.Null);
    Alcotest.(check bool) "series recorded" true
      (member [ "series"; "s"; "total" ] snap = Engine.Json.Number 4.)

(* ------------------------------------------------------------------ *)
(* Trace sink                                                         *)
(* ------------------------------------------------------------------ *)

(* Run [n] events into a fresh registry's sink and return the file's
   lines plus the (seen, written) counters. *)
let run_sink ?sample ?seed n =
  let path = Filename.temp_file "qvisor_tel" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let tel = Tel.create () in
      let oc = open_out path in
      Tel.attach_sink tel ?sample ?seed oc;
      for i = 0 to n - 1 do
        Tel.event tel
          ~time:(float_of_int i *. 1e-3)
          ~kind:"enqueue" ~link:(i mod 4) ~tenant:(i mod 2) ~flow:i ~rank:(i * 3)
          ()
      done;
      let seen = Tel.events_seen tel in
      let written = Tel.events_written tel in
      Tel.detach_sink tel;
      close_out oc;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      (lines, seen, written))

let test_sink_unsampled_writes_all () =
  let lines, seen, written = run_sink 50 in
  Alcotest.(check int) "seen" 50 seen;
  Alcotest.(check int) "written" 50 written;
  Alcotest.(check int) "lines" 50 (List.length lines)

let test_sink_sampling_deterministic () =
  let lines_a, seen_a, written_a = run_sink ~sample:0.3 ~seed:42 400 in
  let lines_b, _, written_b = run_sink ~sample:0.3 ~seed:42 400 in
  Alcotest.(check int) "seen all" 400 seen_a;
  Alcotest.(check bool) "sampling thins" true (written_a > 0 && written_a < 400);
  Alcotest.(check int) "same seed, same count" written_a written_b;
  Alcotest.(check (list string)) "same seed, same lines" lines_a lines_b;
  let lines_c, _, _ = run_sink ~sample:0.3 ~seed:43 400 in
  Alcotest.(check bool) "different seed differs" true (lines_a <> lines_c)

let test_sink_sample_zero () =
  let lines, seen, written = run_sink ~sample:0. 100 in
  Alcotest.(check int) "all offered" 100 seen;
  Alcotest.(check int) "none written" 0 written;
  Alcotest.(check int) "file empty" 0 (List.length lines)

let test_sink_ndjson_round_trip () =
  let lines, _, _ = run_sink 3 in
  List.iteri
    (fun i line ->
      match Engine.Json.of_string line with
      | Error e -> Alcotest.failf "line %d is not JSON: %s" i e
      | Ok v ->
        Alcotest.(check (option string)) "ev" (Some "enqueue")
          (Option.bind (Engine.Json.member "ev" v) Engine.Json.to_str);
        Alcotest.(check (option int)) "flow" (Some i)
          (Option.bind (Engine.Json.member "flow" v) Engine.Json.to_int);
        Alcotest.(check (option int)) "rank" (Some (i * 3))
          (Option.bind (Engine.Json.member "rank" v) Engine.Json.to_int);
        (* rank_before was not supplied: the field must be absent, not 0. *)
        Alcotest.(check bool) "absent field omitted" true
          (Engine.Json.member "rank_before" v = None))
    lines

(* ------------------------------------------------------------------ *)
(* End-to-end instrumentation                                         *)
(* ------------------------------------------------------------------ *)

let test_instrumented_net_counters () =
  let tel = Tel.create () in
  (* Two hosts, one switch, FIFO ports of capacity 1: a 5-packet burst
     from tenant 3 forces drops (cf. the netsim drop-counting test). *)
  let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6);
  ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay:1e-6);
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let delivered = ref 0 in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ -> Sched.Fifo_queue.create ~capacity_pkts:1 ())
      ~telemetry:tel
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  for _ = 1 to 5 do
    Netsim.Net.inject net
      (Sched.Packet.make ~src:0 ~dst:1 ~tenant:3 ~flow:1 ~size:1250 ())
  done;
  Engine.Sim.run sim;
  let v name = Tel.Counter.value (Tel.counter tel name) in
  Alcotest.(check int) "drop counter matches qdiscs"
    (Netsim.Net.total_drops net) (v "net.drop");
  Alcotest.(check int) "per-tenant drops" (v "net.drop") (v "net.tenant.3.drop");
  (* Everything drained, so offered = transmitted + dropped. *)
  Alcotest.(check int) "enq = deq + drop" (v "net.enqueue")
    (v "net.dequeue" + v "net.drop");
  Alcotest.(check int) "tenant enq = deq + drop" (v "net.tenant.3.enqueue")
    (v "net.tenant.3.dequeue" + v "net.tenant.3.drop");
  let sojourn = Tel.histogram tel "net.sojourn_seconds" in
  Alcotest.(check int) "one sojourn per dequeue" (v "net.dequeue")
    (Tel.Histogram.count sojourn);
  let depth = Tel.histogram tel "net.queue_depth_pkts" in
  Alcotest.(check int) "one depth sample per enqueue" (v "net.enqueue")
    (Tel.Histogram.count depth);
  Alcotest.(check bool) "some events fired" true (Engine.Sim.events_fired sim > 0)

let test_instrumented_preprocessor () =
  let tel = Tel.create () in
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:1000 ~id:0
        ~name:"T1" ();
      Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:100 ~id:1
        ~name:"T2" ();
    ]
  in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants
      ~policy:(Qvisor.Policy.parse_exn "T1 >> T2")
      ()
  in
  let pre = Qvisor.Preprocessor.of_plan ~telemetry:tel plan in
  for r = 0 to 9 do
    Qvisor.Preprocessor.process pre
      (Sched.Packet.make ~tenant:0 ~rank:(r * 100) ~flow:1 ~size:1500 ())
  done;
  (* An unknown tenant takes the fallback action. *)
  Qvisor.Preprocessor.process pre
    (Sched.Packet.make ~tenant:9 ~rank:5 ~flow:1 ~size:1500 ());
  let v name = Tel.Counter.value (Tel.counter tel name) in
  Alcotest.(check int) "table hits" 10 (v "preprocessor.table_hits");
  Alcotest.(check int) "fallback hits" 1 (v "preprocessor.fallback_hits");
  let err = Tel.histogram tel "preprocessor.rank_error" in
  Alcotest.(check int) "one error sample per packet" 11
    (Tel.Histogram.count err);
  Alcotest.(check bool) "error is finite and small" true
    (let m = Tel.Histogram.mean err in
     Float.is_finite m && m >= 0. && m < 100.)

(* ------------------------------------------------------------------ *)
(* Merge                                                              *)
(* ------------------------------------------------------------------ *)

let test_merge_combines_metrics () =
  let a = Tel.create () and b = Tel.create () in
  Tel.Counter.add (Tel.counter a "c") 2;
  Tel.Counter.add (Tel.counter b "c") 3;
  Tel.Counter.add (Tel.counter b "only_b") 1;
  Tel.Gauge.set (Tel.gauge a "g") 1.;
  Tel.Gauge.set (Tel.gauge b "g") 9.;
  List.iter (Tel.Histogram.observe (Tel.histogram a "h")) [ 1.; 2. ];
  List.iter (Tel.Histogram.observe (Tel.histogram b "h")) [ 3.; 4. ];
  Tel.Series.record (Tel.series a "s") ~time:0.1 1.;
  Tel.Series.record (Tel.series b "s") ~time:0.1 2.;
  Tel.merge_into ~into:a b;
  Alcotest.(check int) "counters add" 5 (Tel.Counter.value (Tel.counter a "c"));
  Alcotest.(check int) "src-only counter lands" 1
    (Tel.Counter.value (Tel.counter a "only_b"));
  check_float "gauge: src wins (serial order)" 9.
    (Tel.Gauge.value (Tel.gauge a "g"));
  let h = Tel.histogram a "h" in
  Alcotest.(check int) "histogram count" 4 (Tel.Histogram.count h);
  check_float "histogram mean" 2.5 (Tel.Histogram.mean h)

let test_merge_matches_serial () =
  (* Splitting a workload across two registries and merging in order must
     snapshot identically to one registry fed everything serially. *)
  let feed tel values =
    List.iter (Tel.Histogram.observe (Tel.histogram tel "lat")) values;
    List.iter (fun v -> Tel.Counter.add (Tel.counter tel "n") (int_of_float v)) values
  in
  let serial = Tel.create () in
  feed serial [ 1.; 2. ];
  feed serial [ 3.; 4. ];
  let p1 = Tel.create () and p2 = Tel.create () in
  feed p1 [ 1.; 2. ];
  feed p2 [ 3.; 4. ];
  let merged = Tel.create () in
  Tel.merge_into ~into:merged p1;
  Tel.merge_into ~into:merged p2;
  Alcotest.(check string) "snapshots identical"
    (Engine.Json.to_string (Tel.snapshot serial))
    (Engine.Json.to_string (Tel.snapshot merged))

let test_merge_disabled_noop () =
  let a = Tel.create () in
  Tel.Counter.add (Tel.counter a "c") 2;
  Tel.merge_into ~into:a Tel.disabled;
  Alcotest.(check int) "disabled src ignored" 2
    (Tel.Counter.value (Tel.counter a "c"));
  Tel.merge_into ~into:Tel.disabled a;
  Alcotest.(check int) "disabled into untouched" 0
    (Tel.Counter.value (Tel.counter Tel.disabled "c"))

(* ------------------------------------------------------------------ *)
(* Hot path: same bits, no allocation beyond the boxed argument       *)
(* ------------------------------------------------------------------ *)

(* Snapshot numbers of a histogram fed the seeded stream, whole and
   merged (via [merge_into]) from a 6000/4000 split, as IEEE-754 bits:
   what snapshots and the exposition report must not drift. *)
let histogram_golden =
  [
    ("whole.mean", 0x40195708eac2f49dL);
    ("whole.min", 0xbfefff544f387e73L);
    ("whole.max", 0x4050000000000000L);
    ("whole.sum", 0x40eeeebe6292fbd8L);
    ("whole.p50", 0x3ef20cfa2db6bc1bL);
    ("whole.p90", 0x404017f96f15b37dL);
    ("whole.p99", 0x404ed143a4a10e51L);
    ("merged.mean", 0x40195708eac2f4acL);
    ("merged.min", 0xbfefff544f387e73L);
    ("merged.max", 0x4050000000000000L);
    ("merged.sum", 0x40eeeebe6292fbb8L);
    ("merged.p50", 0x3fe10ef54c5ff8a1L);
    ("merged.p90", 0x40437c4a9eb69b0dL);
    ("merged.p99", 0x404f22d913da8b55L);
  ]

let test_histogram_golden_bits () =
  let xs = Pins.stream 10_000 in
  let fill lo hi =
    let tel = Tel.create () in
    let h = Tel.histogram tel "h" in
    for i = lo to hi - 1 do
      Tel.Histogram.observe h xs.(i)
    done;
    tel
  in
  let read name tel =
    match Tel.snapshot tel with
    | Engine.Json.Obj fields -> (
      match List.assoc "histograms" fields with
      | Engine.Json.Obj [ (_, Engine.Json.Obj h) ] ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Engine.Json.Number x when k <> "count" -> Some (name ^ "." ^ k, x)
            | _ -> None)
          h
      | _ -> Alcotest.fail "one histogram expected")
    | _ -> Alcotest.fail "snapshot is an object"
  in
  let merged = fill 0 6_000 in
  Tel.merge_into ~into:merged (fill 6_000 10_000);
  Pins.check_bits ~expected:histogram_golden
    (read "whole" (fill 0 10_000) @ read "merged" merged)

let test_histogram_observe_allocation () =
  let xs = Pins.stream 8192 in
  let h = Tel.histogram (Tel.create ()) "h" in
  let i = ref 0 in
  let w =
    Pins.words_per_call (fun () ->
        incr i;
        Tel.Histogram.observe h xs.(!i land 8191))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per observe: at most the boxed argument's 2" w)
    true (w <= 2.)

(* The same traffic through an instrumented and a bare fabric: per packet
   hop, telemetry may allocate only the boxed float it hands each
   histogram (queue depth on enqueue, sojourn on dequeue) — the counters,
   per-tenant ones included, allocate nothing.  Measured on a second batch
   of packets, after the first has created every tenant's counters. *)
let test_net_telemetry_allocation () =
  let batch = 2_000 in
  let run tel =
    let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
    ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6);
    ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay:1e-6);
    let routing = Netsim.Routing.compute topo in
    let sim = Engine.Sim.create () in
    let net =
      Netsim.Net.create ~sim ~topo ~routing
        ~make_qdisc:(fun _ -> Sched.Fifo_queue.create ~capacity_pkts:16 ())
        ~telemetry:tel
        ~deliver:(fun _ -> ())
        ()
    in
    let packets () =
      Array.init batch (fun i ->
          Sched.Packet.make ~src:0 ~dst:1 ~tenant:(i mod 3) ~flow:i
            ~size:1250 ())
    in
    let send ps =
      Array.iter (Netsim.Net.inject net) ps;
      Engine.Sim.run sim
    in
    let hops () =
      Tel.Counter.value (Tel.counter tel "net.enqueue")
      + Tel.Counter.value (Tel.counter tel "net.dequeue")
    in
    send (packets ());
    let ps = packets () in
    let h0 = hops () in
    let w0 = Gc.minor_words () in
    send ps;
    let words = Gc.minor_words () -. w0 in
    (words, hops () - h0)
  in
  let bare, _ = run Tel.disabled in
  let tel = Tel.create () in
  let instrumented, hops = run tel in
  Alcotest.(check bool) "some drops" true
    (Tel.Counter.value (Tel.counter tel "net.drop") > 0);
  let extra = instrumented -. bare in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f extra words over %d hops: at most 2 per hop" extra
       hops)
    true
    (extra <= 2. *. float_of_int hops)

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counter interning" `Quick test_counter_interning;
          Alcotest.test_case "gauge+histogram" `Quick test_gauge_and_histogram;
          Alcotest.test_case "disabled registry" `Quick test_disabled_registry;
          Alcotest.test_case "sample validation" `Quick
            test_attach_sink_validates_sample;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "round trips" `Quick test_snapshot_round_trips ] );
      ( "merge",
        [
          Alcotest.test_case "combines metrics" `Quick
            test_merge_combines_metrics;
          Alcotest.test_case "matches serial" `Quick test_merge_matches_serial;
          Alcotest.test_case "disabled no-op" `Quick test_merge_disabled_noop;
        ] );
      ( "trace_sink",
        [
          Alcotest.test_case "unsampled writes all" `Quick
            test_sink_unsampled_writes_all;
          Alcotest.test_case "sampling deterministic" `Quick
            test_sink_sampling_deterministic;
          Alcotest.test_case "sample zero" `Quick test_sink_sample_zero;
          Alcotest.test_case "ndjson round trip" `Quick
            test_sink_ndjson_round_trip;
        ] );
      ( "integration",
        [
          Alcotest.test_case "instrumented net" `Quick
            test_instrumented_net_counters;
          Alcotest.test_case "instrumented preprocessor" `Quick
            test_instrumented_preprocessor;
        ] );
      ( "hot_path",
        [
          Alcotest.test_case "histogram golden bits" `Quick
            test_histogram_golden_bits;
          Alcotest.test_case "histogram observe allocates only its argument"
            `Quick test_histogram_observe_allocation;
          Alcotest.test_case "net telemetry allocates only histogram arguments"
            `Quick test_net_telemetry_allocation;
        ] );
    ]
