(* The two Fig. 4 workloads: one QVISOR [pfabric >> edf] point at load
   0.5, run in-process through [Experiments.Fig4.run].

   - [Paper_bare]: the 144-host paper fabric (9 leaves x 16 hosts, 4
     spines, 100 CBR flows, as in paper_lite.conf) with a 20 ms arrival
     window, every instrumentation switch off.
   - [Quick_observed]: the 8-host quick point with the stack that
     `experiments single --slo --telemetry --metrics-out
     --metrics-interval` arms, plus one [Exposition.render] per SLO tick.

   Untraced, a run covers points of distinct seeds for the time budget,
   each in a fresh process, and reports medians over the points.  Traced,
   it adds bench-side probes: a phase profiler, a wrapped bucket-queue
   PIFO injected through [params.inject_qdisc], a second assembly of the
   same bare point from the public constructors with the pre-processor
   and transport wrapped (its simulated statistics must equal
   [Fig4.run]'s), and, on the quick point, the instrumentation ledger. *)

module F = Experiments.Fig4

type kind = Paper_bare | Quick_observed

let policy = "pfabric >> edf"

let scheme = F.Qvisor_policy policy

let tenant_names = [ (0, "pfabric"); (1, "edf") ]

let params kind ~seed =
  match kind with
  | Paper_bare ->
    {
      F.paper_scale with
      F.duration = 0.02;
      warmup = 0.005;
      drain = 0.03;
      load = 0.5;
      seed;
    }
  | Quick_observed -> { F.quick with F.load = 0.5; seed }

(* ------------------------------------------------------------------ *)
(* Output checks                                                      *)
(* ------------------------------------------------------------------ *)

(* The simulated statistics a repetition must reproduce exactly. *)
type signature = {
  events : int;
  drops : int;
  started : int;
  completed : int;
  fct_ms : float list;  (* small, large, overall mean; small, large p99 *)
  health : string;  (* final tenant states and transitions, with SLO audit *)
}

let signature (r : F.result) =
  {
    events = r.F.events_fired;
    drops = r.F.drops;
    started = r.F.flows_started;
    completed = r.F.flows_completed;
    fct_ms =
      [
        r.F.small_mean_ms;
        r.F.large_mean_ms;
        r.F.overall_mean_ms;
        r.F.small_p99_ms;
        r.F.large_p99_ms;
      ];
    health =
      (match r.F.slo with
      | None -> "-"
      | Some rep ->
        Printf.sprintf "%s; %d transitions"
          (String.concat ","
             (List.map
                (fun (_, st, _) -> Engine.Health.state_to_string st)
                rep.F.verdicts))
          rep.F.health_alerts);
  }

(* Exact equality, with every NaN equal to every other (a bucket with no
   completed flow has a NaN mean). *)
let same_floats a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> x = y || (Float.is_nan x && Float.is_nan y))
       a b

let same a b =
  a.events = b.events && a.drops = b.drops && a.started = b.started
  && a.completed = b.completed && a.health = b.health
  && same_floats a.fct_ms b.fct_ms

let string_of_signature s =
  Printf.sprintf "events %d, drops %d, flows %d/%d, fct ms [%s], health %s"
    s.events s.drops s.completed s.started
    (String.concat "; " (List.map (Printf.sprintf "%.17g") s.fct_ms))
    s.health

let default_seed = 1

(* The statistics of the default seed's first four points, in
   [sub_seeds] order; a change of simulated behaviour shows up as a failed
   check. *)
let recorded = function
  | Paper_bare ->
    [
      {
        events = 2322490;
        drops = 54668;
        started = 66;
        completed = 39;
        fct_ms = [ 0.10753624441554457; 19.585578788360316; 3.048813782845099; 0.52551595911940652; 29.082191214912008 ];
        health = "-";
      };
      {
        events = 2138330;
        drops = 43772;
        started = 67;
        completed = 42;
        fct_ms = [ 0.094285504358839714; 21.252802304532118; 1.8719378660257162; 0.49320442923079189; 35.616174789083708 ];
        health = "-";
      };
      {
        events = 2105945;
        drops = 36560;
        started = 53;
        completed = 38;
        fct_ms = [ 0.042084313549818474; 17.554586722496889; 3.6940765304218703; 0.31733585694688515; 33.336383210427087 ];
        health = "-";
      };
      {
        events = 2199821;
        drops = 42961;
        started = 67;
        completed = 40;
        fct_ms = [ 0.059618152393935572; 11.611850580926511; 1.7924715663026516; 0.50957288929809563; 12.846204762285749 ];
        health = "-";
      };
    ]
  | Quick_observed ->
    [
      {
        events = 1082210;
        drops = 20452;
        started = 16;
        completed = 12;
        fct_ms = [ 0.14395309201139475; 79.268037427352368; 26.732634742419052; 0.48248372073982038; 109.85268264797169 ];
        health = "healthy,healthy; 0 transitions";
      };
      {
        events = 860231;
        drops = 20145;
        started = 13;
        completed = 9;
        fct_ms = [ 0.018448604385541689; 22.616176513937418; 5.5847979387727085; 0.027045908928337026; 36.254959364423591 ];
        health = "healthy,healthy; 0 transitions";
      };
      {
        events = 830024;
        drops = 403;
        started = 5;
        completed = 3;
        fct_ms = [ 0.015510232843756838; nan; 0.015510232843756838; 0.023882404560653801; nan ];
        health = "healthy,healthy; 0 transitions";
      };
      {
        events = 1419991;
        drops = 12121;
        started = 17;
        completed = 14;
        fct_ms = [ 0.1129044169811422; 88.821985522688593; 32.787781873158309; 0.31542293162472379; 247.51942388441907 ];
        health = "healthy,healthy; 0 transitions";
      };
    ]

(* ------------------------------------------------------------------ *)
(* One Fig4.run                                                       *)
(* ------------------------------------------------------------------ *)

(* Which of Fig4.run's public instrumentation switches a run arms. *)
type arm = {
  flight : bool;
  slo : bool;
  telemetry : bool;
  perf : bool;
  render : bool;  (* Exposition.render on every SLO tick *)
}

let bare =
  { flight = false; slo = false; telemetry = false; perf = false; render = false }

let observed =
  { flight = true; slo = true; telemetry = true; perf = true; render = true }

let arm_of = function Paper_bare -> bare | Quick_observed -> observed

type run = {
  result : F.result;
  sig_ : signature;
  setup_s : float;  (* Fig4.run wall time outside Sim.run *)
  events_per_s : float;
  alloc_b_per_event : float;  (* bytes allocated inside sim.run *)
  spans : Engine.Span.total list;
  tel : Engine.Telemetry.t;
  wall_s : float;  (* the whole Fig4.run *)
  simulated_s : float;  (* simulated seconds the point covers *)
  render_ms : float list;  (* one Exposition.render per SLO tick *)
  render_bytes : int;
  gc_minor : int;
  gc_major : int;
  gc_promoted_b : float;
  slowdown : float;
      (* the host's speed around the point: the calibration loop's ns/op
         just before and after it, over its reference; above 1 on a slow
         host *)
}

let seconds_since t0 = Int64.to_float (Int64.sub (Probe.now_ns ()) t0) *. 1e-9

let run_fig4 ?inject arm params =
  (* The phase profiler records six spans per run and none per event:
     it splits sim.run's allocation from set-up's. *)
  let profiler = Engine.Span.create () in
  let tel =
    if arm.telemetry then Engine.Telemetry.create ()
    else Engine.Telemetry.disabled
  in
  let render_ms = ref [] and render_bytes = ref 0 in
  let on_tick =
    if arm.render then fun (_ : float) ->
      let t0 = Probe.now_ns () in
      let text = Engine.Exposition.render ~tenant_names tel in
      render_ms := (seconds_since t0 *. 1e3) :: !render_ms;
      render_bytes := !render_bytes + String.length text
    else fun (_ : float) -> ()
  in
  let params =
    match inject with
    | None -> params
    | Some f -> { params with F.inject_qdisc = Some f }
  in
  let flight = if arm.flight then Some Netsim.Net.default_flight else None in
  Gc.full_major ();
  let calib_before = Calib.ns_per_op () in
  let g0 = Gc.quick_stat () in
  let t0 = Probe.now_ns () in
  let outcome =
    F.run ~telemetry:tel ~profiler ?flight ~slo:arm.slo ~on_tick
      ~perf:arm.perf params scheme
  in
  let wall = seconds_since t0 in
  let slowdown =
    (calib_before +. Calib.ns_per_op ()) /. (2. *. Calib.reference_ns)
  in
  let g1 = Gc.quick_stat () in
  match outcome with
  | Error e -> Error (Qvisor.Error.to_string e)
  | Ok result ->
    let spans = Engine.Span.totals profiler in
    let sim_alloc =
      match List.find_opt (fun s -> s.Engine.Span.name = "sim.run") spans with
      | Some s -> s.Engine.Span.alloc_b
      | None -> nan
    in
    let events = float_of_int result.F.events_fired in
    Ok
      {
        result;
        sig_ = signature result;
        setup_s = wall -. result.F.wall_seconds;
        events_per_s = events /. result.F.wall_seconds;
        alloc_b_per_event = sim_alloc /. events;
        spans;
        tel;
        wall_s = wall;
        simulated_s = params.F.duration +. params.F.drain;
        render_ms = !render_ms;
        render_bytes = !render_bytes;
        gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
        gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
        gc_promoted_b =
          (g1.Gc.promoted_words -. g0.Gc.promoted_words) *. Engine.Perf.word_bytes;
        slowdown;
      }

(* A run passes when it succeeded and reproduces [reference] (when
   given).  With the SLO audit on, the default seed's point must also end
   with every tenant Healthy and no health transition; other seeds may
   end otherwise, but reproducibly, since the outcome is part of the
   statistics every repetition must match. *)
let check ledger ~what ~reference ~seed arm outcome =
  let ok, why =
    match outcome with
    | Error e -> (false, e)
    | Ok r -> (
      let healthy =
        (not arm.slo) || seed <> default_seed
        ||
        match r.result.F.slo with
        | None -> false
        | Some rep ->
          rep.F.health_alerts = 0
          && List.for_all
               (fun (_, st, _) -> st = Engine.Health.Healthy)
               rep.F.verdicts
      in
      match reference with
      | Some s when not (same s r.sig_) ->
        ( false,
          Printf.sprintf "statistics differ: got %s, expected %s"
            (string_of_signature r.sig_) (string_of_signature s) )
      | _ when not healthy -> (false, "a tenant did not end Healthy")
      | _ -> (true, ""))
  in
  Report.count ledger ok ~what:(what ^ ": " ^ why);
  match outcome with Ok r when ok -> Some r | _ -> None

(* ------------------------------------------------------------------ *)
(* Untraced measurement                                               *)
(* ------------------------------------------------------------------ *)

let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
          (fun kb -> kb /. 1024.)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* A run covers many points of the same workload, each with its own
   seed: the run's seed itself, then seeds derived from it.  A single
   point's event count varies with its seed (heavy-tailed flow sizes:
   +-25% on the quick point, +-15% on the paper one), so a run resting on
   one point, or on a few points repeated, would mostly measure its seeds.
   The count follows from the time budget and a nominal point time, so
   the same seed and budget always give the same points. *)
let nominal_point_s = function Paper_bare -> 1.4 | Quick_observed -> 1.1

let derived ~seed i = if i = 0 then seed else Engine.Rng.derive ~seed i

let sub_seeds kind ~seed ~seconds =
  let n = max 4 (int_of_float (Float.round (seconds /. nominal_point_s kind))) in
  List.init n (derived ~seed)

let workload_name = function
  | Paper_bare -> "fig4-paper-bare"
  | Quick_observed -> "fig4-quick-observed"

let kind_of_name = function
  | "fig4-paper-bare" -> Some Paper_bare
  | "fig4-quick-observed" -> Some Quick_observed
  | _ -> None

(* One point in a process of its own, as `experiments single` runs it:
   the set-up pays its page faults on a fresh heap under the allocator's
   default behaviour, and no point inherits another's heap.  The process
   writes the run, without its registry and spans, and its peak RSS to
   standard output; [in_own_process] reads them back. *)
let point_main kind ~seed =
  let outcome =
    match run_fig4 (arm_of kind) (params kind ~seed) with
    | Ok r -> Ok ({ r with tel = Engine.Telemetry.disabled; spans = [] }, vmhwm_mb "self")
    | Error e -> Error e
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (outcome : (run * float, string) result) [];
  flush stdout

let in_own_process kind ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [|
        Sys.executable_name; "--point"; workload_name kind; "--seed";
        string_of_int seed;
      |]
  in
  set_binary_mode_in ic true;
  let outcome =
    match (Marshal.from_channel ic : (run * float, string) result) with
    | o -> o
    | exception (End_of_file | Failure _) -> Error "the point's process sent no result"
  in
  match (Unix.close_process_in ic, outcome) with
  | Unix.WEXITED 0, o -> o
  | _, Ok _ -> Error "the point's process failed"
  | _, e -> e

(* Run [seeds], each in its own process, after one untimed point on the
   run's own seed.  A point run twice must give the same statistics both
   times (that seed is timed again), and on the default seed the first
   points must give the recorded ones.  Each timed point comes with its
   process's peak RSS. *)
let sweep ledger kind ~seed ~seeds arm =
  let refs = Hashtbl.create 8 in
  if seed = default_seed then
    List.iteri
      (fun i s -> Hashtbl.replace refs (derived ~seed i) s)
      (recorded kind);
  let one what sub =
    let reference = Hashtbl.find_opt refs sub in
    let outcome = in_own_process kind ~seed:sub in
    let r = check ledger ~what ~reference ~seed:sub arm (Result.map fst outcome) in
    (match (r, reference) with
    | Some r, None -> Hashtbl.replace refs sub r.sig_
    | _ -> ());
    match (r, outcome) with Some r, Ok (_, rss) -> Some (r, rss) | _ -> None
  in
  ignore (one "repeated point" seed);
  let runs =
    List.filter_map (fun sub -> one (Printf.sprintf "point, seed %d" sub) sub) seeds
  in
  (runs, refs)

(* The end-to-end metrics over the timed points.  A Fig. 4 point serves
   no control socket, yet every end-to-end metric is reported on every
   workload: here a control round trip is one point, from the Fig4.run
   call to its result, per million simulated events (a point's raw
   round trip mostly measures how many events its seed draws).  Scrapes
   are the per-tick renders where the workload has them; without any,
   the statistics can only be read when the point returns, so a scrape
   is the point's round trip as well. *)
let e2e_of ?(rescale = true) runs =
  (* Host times of a point are divided by its slowdown (rates multiplied):
     this host's speed drifts by up to 1.7x over seconds to minutes, and
     the rescaled figures drift about half as much. *)
  let k r = if rescale then r.slowdown else 1. in
  let med f = Stats.median (List.map f runs) in
  let point_ms =
    List.map
      (fun r ->
        r.wall_s *. 1e3 *. 1e6 /. float_of_int r.result.F.events_fired /. k r)
      runs
  in
  let scrapes =
    match List.concat_map (fun r -> List.map (fun t -> t /. k r) r.render_ms) runs with
    | [] -> point_ms
    | renders -> renders
  in
  [
    Report.m "setup_s" "s" (med (fun r -> r.setup_s /. k r));
    Report.m "events_per_s" "1/s" (med (fun r -> r.events_per_s *. k r));
    Report.m "alloc_b_per_event" "B" (med (fun r -> r.alloc_b_per_event));
    Report.m "sim_s_per_s" "s/s"
      (med (fun r -> r.simulated_s /. r.result.F.wall_seconds *. k r));
    Report.m "ctl_p50_ms" "ms" (Stats.percentile point_ms 0.5);
    Report.m "ctl_p90_ms" "ms" (Stats.percentile point_ms 0.9);
    Report.m "scrape_p50_ms" "ms" (Stats.percentile scrapes 0.5);
    Report.m "scrape_p90_ms" "ms" (Stats.percentile scrapes 0.9);
  ]

(* The host-time figures as measured, and the median slowdown. *)
let raw_note runs =
  Printf.sprintf "not rescaled: %s; median slowdown %.3f"
    (String.concat ", "
       (List.filter_map
          (fun (m : Report.metric) ->
            if m.Report.name = "alloc_b_per_event" then None
            else Some (Printf.sprintf "%s %.4g" m.Report.name m.Report.value))
          (e2e_of ~rescale:false runs)))
    (Stats.median (List.map (fun r -> r.slowdown) runs))

let samples_note runs =
  let renders = List.fold_left (fun a r -> a + List.length r.render_ms) 0 runs in
  Printf.sprintf "percentiles over %d points and %s" (List.length runs)
    (if renders = 0 then "no renders (scrape = point)"
     else Printf.sprintf "%d renders" renders)

let untraced kind ~seed ~seconds =
  let ledger = Report.ledger () in
  let seeds = sub_seeds kind ~seed ~seconds in
  let points, refs = sweep ledger kind ~seed ~seeds (arm_of kind) in
  let runs = List.map fst points in
  let e2e =
    e2e_of runs @ [ Report.m "peak_rss_mb" "MB" (Stats.median (List.map snd points)) ]
  in
  let notes =
    Printf.sprintf
      "%d points of distinct seeds, each in a fresh process, after one \
       repeated point; %s; peak RSS is the median over the points' processes"
      (List.length runs) (samples_note runs)
    :: raw_note runs
    :: List.map
         (fun sub ->
           Printf.sprintf "seed %d: %s" sub
             (match Hashtbl.find_opt refs sub with
             | Some s -> string_of_signature s
             | None -> "-"))
         (List.filteri (fun i _ -> i < 4) seeds)
    @ Report.failures ledger
  in
  {
    Report.attempted = ledger.Report.ops;
    failed = ledger.Report.bad;
    e2e;
    traced_e2e = [];
    layers = [];
    notes;
  }

(* ------------------------------------------------------------------ *)
(* Traced measurement                                                 *)
(* ------------------------------------------------------------------ *)

(* The bare point assembled from the public constructors, in the same
   order Fig4.run builds it, with the pre-processor, the transport's
   deliver and the port queues wrapped in probes. *)
let assembled p ~enq ~deq ~pre ~dlv =
  let num_hosts = p.F.leaves * p.F.hosts_per_leaf in
  let topo =
    Netsim.Topology.leaf_spine ~leaves:p.F.leaves ~spines:p.F.spines
      ~hosts_per_leaf:p.F.hosts_per_leaf ~access_rate:p.F.access_rate
      ~fabric_rate:p.F.fabric_rate ~link_delay:p.F.link_delay
  in
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:p.F.seed in
  let transport = Netsim.Transport.create ~sim () in
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0
        ~rank_hi:(30_000_000 / p.F.pfabric_unit_bytes)
        ~id:0 ~name:"pfabric" ();
      Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0
        ~rank_hi:(int_of_float (1.5 *. p.F.cbr_deadline /. p.F.edf_unit_seconds))
        ~id:1 ~name:"edf" ();
    ]
  in
  let plan =
    match
      Qvisor.Synthesizer.synthesize
        ~config:{ Qvisor.Synthesizer.default_config with levels = p.F.levels }
        ~tenants ~policy:(Qvisor.Policy.parse_exn policy) ()
    with
    | Ok plan -> plan
    | Error e -> failwith (Qvisor.Error.to_string e)
  in
  let process =
    Qvisor.Preprocessor.process
      (Qvisor.Preprocessor.of_plan ~rank_error_sample:8 plan)
  in
  let deliver = Netsim.Transport.deliver transport in
  let make_qdisc _ =
    Probe.qdisc ~enq ~deq
      (Sched.Bucket_queue.create ~name:"pifo"
         ~capacity_pkts:p.F.queue_capacity_pkts ())
  in
  let net =
    Netsim.Net.create ~sim ~topo ~routing ~make_qdisc
      ~preprocess:(fun pkt -> Probe.wrap1 pre process pkt)
      ~deliver:(fun pkt -> Probe.wrap1 dlv deliver pkt)
      ()
  in
  Netsim.Transport.attach transport net;
  let metrics = Netsim.Metrics.create () in
  let on_complete (r : Netsim.Transport.flow_result) =
    if r.Netsim.Transport.started_at >= p.F.warmup then
      Netsim.Metrics.record metrics r
  in
  let arrivals =
    Netsim.Workload.poisson_open_loop ~sim ~rng:(Engine.Rng.split rng)
      ~transport ~tenant:0
      ~ranker:(Sched.Ranker.pfabric ~unit_bytes:p.F.pfabric_unit_bytes ())
      ~num_hosts ~load:p.F.load ~access_rate:p.F.access_rate
      ~dist:(Netsim.Workload.data_mining ()) ~window:p.F.window ~rto:p.F.rto
      ~until:p.F.duration ~on_complete ()
  in
  ignore
    (Netsim.Workload.cbr_tenant ~sim ~rng:(Engine.Rng.split rng) ~transport
       ~tenant:1
       ~ranker:
         (Sched.Ranker.edf ~unit_seconds:p.F.edf_unit_seconds
            ~horizon:(1.5 *. p.F.cbr_deadline) ())
       ~num_hosts ~flows:p.F.cbr_flows ~rate:p.F.cbr_rate
       ~deadline_budget:p.F.cbr_deadline
       ~until:(p.F.duration +. p.F.drain)
       ());
  Engine.Sim.run ~until:(p.F.duration +. p.F.drain) sim;
  let module M = Netsim.Metrics in
  {
    events = Engine.Sim.events_fired sim;
    drops = Netsim.Net.total_drops net;
    started = arrivals.Netsim.Workload.flows_started;
    completed = M.completed metrics;
    fct_ms =
      [
        M.mean_fct_ms metrics M.Small;
        M.mean_fct_ms metrics M.Large;
        1e3 *. Engine.Stats.mean (M.overall metrics);
        M.p99_fct_ms metrics M.Small;
        M.p99_fct_ms metrics M.Large;
      ];
    health = "-";
  }

let span_total runs name f =
  Stats.median
    (List.map
       (fun r ->
         List.fold_left
           (fun acc (s : Engine.Span.total) ->
             if List.mem s.Engine.Span.name name then acc +. f s else acc)
           0. r.spans)
       runs)

let counter tel name =
  match List.assoc_opt name (Engine.Telemetry.exported_counters tel) with
  | Some v -> float_of_int v
  | None -> 0.

(* The instrumentation ledger: Fig4.run's public switches added one at a
   time, in interleaved rounds; each layer's cost is the difference of
   the per-event medians of consecutive configurations. *)
let ledger_steps =
  [
    ("base", bare);
    ("recorder", { bare with flight = true });
    ("slo", { bare with flight = true; slo = true });
    ("telemetry", { bare with flight = true; slo = true; telemetry = true });
    ( "perf",
      { bare with flight = true; slo = true; telemetry = true; perf = true } );
  ]

let run_ledger ledger p ~budget ~bare_sig ~observed_sig =
  let t0 = Probe.now_ns () in
  let samples = Hashtbl.create 8 in
  let rec rounds n =
    if n = 0 || seconds_since t0 < budget then begin
      List.iter
        (fun (name, arm) ->
          (* With the SLO audit on, the event count includes its ticks:
             the reference is then the observed run, else the bare one. *)
          let reference = if arm.slo then observed_sig else bare_sig in
          match
            check ledger ~what:("ledger " ^ name) ~reference ~seed:p.F.seed arm
              (run_fig4 arm p)
          with
          | None -> ()
          | Some r ->
            let ev = float_of_int r.result.F.events_fired in
            let prev =
              Option.value (Hashtbl.find_opt samples name) ~default:[]
            in
            Hashtbl.replace samples name
              ((r.result.F.wall_seconds *. 1e9 /. ev, r.alloc_b_per_event)
              :: prev))
        ledger_steps;
      rounds (n + 1)
    end
    else n
  in
  let n = rounds 0 in
  let med name f =
    Stats.median
      (List.map f (Option.value (Hashtbl.find_opt samples name) ~default:[]))
  in
  let rec deltas = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      Report.m (Printf.sprintf "ledger.%s.ns_per_event" b) "ns"
        (med b fst -. med a fst)
      :: Report.m (Printf.sprintf "ledger.%s.b_per_event" b) "B"
           (med b snd -. med a snd)
      :: deltas rest
    | _ -> []
  in
  (deltas ledger_steps, n)

let traced kind ~seed ~seconds =
  Probe.calibrate ();
  let ledger = Report.ledger () in
  let p = params kind ~seed in
  let arm = arm_of kind in
  (* Untraced repetitions first: the baseline the traced numbers sit
     beside, and the reference their statistics must match. *)
  (* Traced and untraced repetitions alike run the first point, the seed
     itself, so the two sets of end-to-end numbers compare like with
     like. *)
  let plain, refs = sweep ledger kind ~seed ~seeds:[ seed; seed ] arm in
  let plain = List.map fst plain in
  let reference = Hashtbl.find_opt refs seed in
  (* Traced Fig4.run: the scheme's bucket-queue PIFO, wrapped and
     injected in place of the identical unwrapped one. *)
  let traced_runs = ref [] and sched = ref [] in
  let t_start = Probe.now_ns () in
  let rec traced_reps n =
    if n < 2 || seconds_since t_start < 0.3 *. seconds then begin
      let enq = Probe.create "enqueue" and deq = Probe.create "dequeue" in
      let qdiscs = ref [] in
      let inject ~capacity_pkts =
        let q = Sched.Bucket_queue.create ~name:"pifo" ~capacity_pkts () in
        qdiscs := q :: !qdiscs;
        Probe.qdisc ~enq ~deq q
      in
      (match
         check ledger ~what:"traced repetition" ~reference ~seed arm
           (run_fig4 ~inject arm p)
       with
      | Some r ->
        traced_runs := r :: !traced_runs;
        let drops =
          List.fold_left
            (fun a (q : Sched.Qdisc.t) -> a + q.Sched.Qdisc.drops ())
            0 !qdiscs
        in
        sched := (enq, deq, drops) :: !sched
      | None -> ());
      traced_reps (n + 1)
    end
  in
  traced_reps 0;
  let runs = List.rev !traced_runs in
  (* The same bare point assembled with every data-plane probe. *)
  let enq = Probe.create "enqueue" and deq = Probe.create "dequeue" in
  let pre = Probe.create "preprocess" and dlv = Probe.create "deliver" in
  let asm = assembled p ~enq ~deq ~pre ~dlv in
  let ledger_layers, ledger_rounds, bare_sig =
    match kind with
    | Paper_bare ->
      (* Every instrumentation switch is off on this workload: the
         ledger entries it pays are zero by construction. *)
      ( List.concat_map
          (fun (name, _) ->
            if name = "base" then []
            else
              [
                Report.m (Printf.sprintf "ledger.%s.ns_per_event" name) "ns" 0.;
                Report.m (Printf.sprintf "ledger.%s.b_per_event" name) "B" 0.;
              ])
          ledger_steps,
        0,
        reference )
    | Quick_observed ->
      let bare_run =
        check ledger ~what:"bare reference" ~reference:None ~seed bare
          (run_fig4 bare p)
      in
      let bare_sig = Option.map (fun r -> r.sig_) bare_run in
      let layers, rounds =
        run_ledger ledger p ~budget:(0.35 *. seconds) ~bare_sig
          ~observed_sig:reference
      in
      (layers, rounds, bare_sig)
  in
  let asm_ok = match bare_sig with Some s -> same s asm | None -> false in
  Report.count ledger asm_ok
    ~what:
      ("assembled bare point: statistics differ from Fig4.run's: "
      ^ string_of_signature asm);
  let med_runs f = Stats.median (List.map f runs) in
  let med_sched f = Stats.median (List.map f !sched) in
  let first_run = match runs with r :: _ -> Some r | [] -> None in
  let events = med_runs (fun r -> float_of_int r.result.F.events_fired) in
  let busy = med_runs (fun r -> r.result.F.wall_seconds) in
  let sched_s =
    med_sched (fun (e, d, _) -> Probe.total_s e +. Probe.total_s d)
  in
  let other_ns =
    (busy -. sched_s -. Probe.total_s pre -. Probe.total_s dlv) *. 1e9 /. events
  in
  let sched_ops (e, d, _) = float_of_int (Probe.ops e + Probe.ops d) in
  let sched_alloc ((e, d, _) as s) =
    ((Probe.bytes_per_op e *. float_of_int (Probe.ops e))
    +. (Probe.bytes_per_op d *. float_of_int (Probe.ops d)))
    /. sched_ops s
  in
  let renders = med_runs (fun r -> float_of_int (List.length r.render_ms)) in
  let render_ms = List.concat_map (fun r -> r.render_ms) runs in
  let layers =
    [
      Report.m "sim.events" "count" events;
      Report.m "sim.busy_s" "s" busy;
      Report.m "sim.other_ns_per_event" "ns" other_ns;
      Report.m "setup.topology_s" "s"
        (span_total runs [ "fig4.topology" ] (fun s -> s.Engine.Span.total_s));
      Report.m "setup.synth_s" "s"
        (span_total runs [ "synthesizer.synthesize"; "preprocessor.compile" ]
           (fun s -> s.Engine.Span.total_s));
      Report.m "setup.net_build_s" "s"
        (span_total runs [ "net.build" ] (fun s -> s.Engine.Span.total_s));
      Report.m "setup.net_build_mb" "MB"
        (span_total runs [ "net.build" ] (fun s -> s.Engine.Span.alloc_b /. 1e6));
      Report.m "sched.enqueue_ops" "count"
        (med_sched (fun (e, _, _) -> float_of_int (Probe.ops e)));
      Report.m "sched.dequeue_ops" "count"
        (med_sched (fun (_, d, _) -> float_of_int (Probe.ops d)));
      Report.m "sched.drops" "count" (med_sched (fun (_, _, n) -> float_of_int n));
      Report.m "sched.enqueue_ns" "ns" (med_sched (fun (e, _, _) -> Probe.ns_per_op e));
      Report.m "sched.dequeue_ns" "ns" (med_sched (fun (_, d, _) -> Probe.ns_per_op d));
      Report.m "sched.alloc_b_per_op" "B" (med_sched sched_alloc);
      Report.m "preproc.ops" "count" (float_of_int (Probe.ops pre));
      Report.m "preproc.ns" "ns" (Probe.ns_per_op pre);
      Report.m "transport.deliver_ops" "count" (float_of_int (Probe.ops dlv));
      Report.m "transport.deliver_ns" "ns" (Probe.ns_per_op dlv);
      Report.m "transport.alloc_b_per_deliver" "B" (Probe.bytes_per_op dlv);
      Report.m "gc.minor_collections" "count"
        (med_runs (fun r -> float_of_int r.gc_minor));
      Report.m "gc.major_collections" "count"
        (med_runs (fun r -> float_of_int r.gc_major));
      Report.m "gc.promoted_b_per_event" "B"
        (med_runs (fun r -> r.gc_promoted_b /. float_of_int r.result.F.events_fired));
    ]
    @ ledger_layers
    @ [
        Report.m "exposition.renders" "count" renders;
        Report.m "exposition.render_ms" "ms"
          (if render_ms = [] then 0. else Stats.median render_ms);
        Report.m "exposition.bytes" "B"
          (if renders = 0. then 0.
           else
             med_runs (fun r ->
                 float_of_int r.render_bytes
                 /. float_of_int (List.length r.render_ms)));
      ]
    @ List.map
        (fun stage ->
          Report.m
            (Printf.sprintf "perf.stage.%s.ops" stage)
            "count"
            (match first_run with
            | Some r ->
              counter r.tel (Printf.sprintf "perf.stage.%s.events" stage)
            | None -> 0.))
        [ "enqueue"; "dequeue"; "preprocess"; "recorder"; "slo_audit" ]
  in
  let notes =
    [
      Printf.sprintf
        "untraced repetitions: %d; traced repetitions: %d; ledger rounds: %d; \
         probes time 1 call in %d"
        (List.length plain) (List.length runs) ledger_rounds Probe.sample_every;
      "assembled bare point: " ^ string_of_signature asm;
      "sched.* and setup.* come from the traced Fig4.run with the wrapped PIFO \
       injected; preproc.* and transport.* from the assembled bare point";
      "the untraced repetitions run in fresh processes; the traced ones share \
       this process, so their set-up after the first is warm";
    ]
    @ Report.failures ledger
  in
  {
    Report.attempted = ledger.Report.ops;
    failed = ledger.Report.bad;
    e2e = e2e_of plain;
    traced_e2e = e2e_of runs;
    layers;
    notes;
  }
