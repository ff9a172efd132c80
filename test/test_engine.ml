(* Tests for the discrete-event engine: Rng, Vec, Event_queue, Sim, Stats,
   P2_quantile. *)

let check_float = Alcotest.(check (float 1e-9))

let check_close msg ~tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Engine.Rng.create ~seed:42 in
  let b = Engine.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_float "same stream" (Engine.Rng.float a) (Engine.Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Engine.Rng.create ~seed:1 in
  let b = Engine.Rng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Engine.Rng.float a <> Engine.Rng.float b then distinct := true
  done;
  Alcotest.(check bool) "streams differ" true !distinct

let test_rng_split_independent () =
  let parent = Engine.Rng.create ~seed:7 in
  let child = Engine.Rng.split parent in
  let child_draws = Array.init 10 (fun _ -> Engine.Rng.float child) in
  (* A parent re-split from the same point yields the same child stream. *)
  let parent' = Engine.Rng.create ~seed:7 in
  let child' = Engine.Rng.split parent' in
  Array.iter
    (fun expected -> check_float "split deterministic" expected (Engine.Rng.float child'))
    child_draws

let test_rng_copy () =
  let a = Engine.Rng.create ~seed:3 in
  ignore (Engine.Rng.float a);
  let b = Engine.Rng.copy a in
  check_float "copy continues identically" (Engine.Rng.float a) (Engine.Rng.float b)

let test_rng_float_bounds () =
  let r = Engine.Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let x = Engine.Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of [0,1): %g" x
  done

let test_rng_float_mean () =
  let r = Engine.Rng.create ~seed:5 in
  let s = Engine.Stats.create () in
  for _ = 1 to 50_000 do
    Engine.Stats.add s (Engine.Rng.float r)
  done;
  check_close "uniform mean ~ 0.5" ~tolerance:0.01 0.5 (Engine.Stats.mean s)

let test_rng_int_range () =
  let r = Engine.Rng.create ~seed:13 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    let x = Engine.Rng.int_range r ~lo:10 ~hi:14 in
    if x < 10 || x > 14 then Alcotest.failf "int_range out of range: %d" x;
    seen.(x - 10) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_int_range_singleton () =
  let r = Engine.Rng.create ~seed:1 in
  Alcotest.(check int) "singleton" 9 (Engine.Rng.int_range r ~lo:9 ~hi:9)

let test_rng_int_range_invalid () =
  let r = Engine.Rng.create ~seed:1 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.int_range: lo > hi")
    (fun () -> ignore (Engine.Rng.int_range r ~lo:2 ~hi:1))

let test_rng_exponential_mean () =
  let r = Engine.Rng.create ~seed:17 in
  let s = Engine.Stats.create () in
  for _ = 1 to 100_000 do
    Engine.Stats.add s (Engine.Rng.exponential r ~mean:3.0)
  done;
  check_close "exponential mean" ~tolerance:0.1 3.0 (Engine.Stats.mean s)

let test_rng_exponential_positive () =
  let r = Engine.Rng.create ~seed:19 in
  for _ = 1 to 10_000 do
    if Engine.Rng.exponential r ~mean:1.0 < 0. then
      Alcotest.fail "negative exponential draw"
  done

let test_rng_pareto_minimum () =
  let r = Engine.Rng.create ~seed:23 in
  for _ = 1 to 10_000 do
    if Engine.Rng.pareto r ~shape:1.5 ~scale:2.0 < 2.0 then
      Alcotest.fail "pareto draw below scale"
  done

let test_rng_pair_distinct () =
  let r = Engine.Rng.create ~seed:29 in
  for _ = 1 to 10_000 do
    let a, b = Engine.Rng.pair_distinct r ~n:5 in
    if a = b then Alcotest.fail "pair not distinct";
    if a < 0 || a >= 5 || b < 0 || b >= 5 then Alcotest.fail "pair out of range"
  done

let test_rng_shuffle_permutation () =
  let r = Engine.Rng.create ~seed:31 in
  let a = Array.init 100 Fun.id in
  Engine.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_empirical_point_mass () =
  let d = Engine.Rng.Empirical.of_points [ (5.0, 1.0) ] in
  let r = Engine.Rng.create ~seed:37 in
  for _ = 1 to 100 do
    check_float "always 5" 5.0 (Engine.Rng.Empirical.sample d r)
  done;
  check_float "mean" 5.0 (Engine.Rng.Empirical.mean d)

let test_empirical_mean_uniform () =
  (* CDF linear from (0,0) to (10,1) is Uniform(0,10): mean 5. *)
  let d = Engine.Rng.Empirical.of_points [ (0.0, 0.0); (10.0, 1.0) ] in
  check_float "analytic mean" 5.0 (Engine.Rng.Empirical.mean d);
  let r = Engine.Rng.create ~seed:41 in
  let s = Engine.Stats.create () in
  for _ = 1 to 50_000 do
    Engine.Stats.add s (Engine.Rng.Empirical.sample d r)
  done;
  check_close "sample mean" ~tolerance:0.1 5.0 (Engine.Stats.mean s)

let test_empirical_sample_range () =
  let d =
    Engine.Rng.Empirical.of_points [ (1.0, 0.3); (10.0, 0.7); (100.0, 1.0) ]
  in
  let r = Engine.Rng.create ~seed:43 in
  for _ = 1 to 10_000 do
    let x = Engine.Rng.Empirical.sample d r in
    if x < 1.0 || x > 100.0 then Alcotest.failf "sample out of support: %g" x
  done

let test_empirical_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true
    (raises (fun () -> ignore (Engine.Rng.Empirical.of_points [])));
  Alcotest.(check bool) "non-increasing values" true
    (raises (fun () ->
         ignore (Engine.Rng.Empirical.of_points [ (2.0, 0.5); (1.0, 1.0) ])));
  Alcotest.(check bool) "cdf not ending at 1" true
    (raises (fun () ->
         ignore (Engine.Rng.Empirical.of_points [ (1.0, 0.5); (2.0, 0.9) ])));
  Alcotest.(check bool) "decreasing cdf" true
    (raises (fun () ->
         ignore
           (Engine.Rng.Empirical.of_points [ (1.0, 0.5); (2.0, 0.4); (3.0, 1.0) ])))

(* ------------------------------------------------------------------ *)
(* Vec                                                                *)
(* ------------------------------------------------------------------ *)

let test_vec_basic () =
  let v = Engine.Vec.create () in
  Alcotest.(check bool) "empty" true (Engine.Vec.is_empty v);
  for i = 0 to 99 do
    Engine.Vec.add_last v i
  done;
  Alcotest.(check int) "length" 100 (Engine.Vec.length v);
  Alcotest.(check int) "get 0" 0 (Engine.Vec.get v 0);
  Alcotest.(check int) "get 99" 99 (Engine.Vec.get v 99);
  Engine.Vec.set v 50 (-1);
  Alcotest.(check int) "set/get" (-1) (Engine.Vec.get v 50)

let test_vec_bounds () =
  let v = Engine.Vec.of_list [ 1; 2; 3 ] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "get -1" true (raises (fun () -> ignore (Engine.Vec.get v (-1))));
  Alcotest.(check bool) "get len" true (raises (fun () -> ignore (Engine.Vec.get v 3)))

let test_vec_pop () =
  let v = Engine.Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "pop" (Some 3) (Engine.Vec.pop_last v);
  Alcotest.(check int) "length after pop" 2 (Engine.Vec.length v);
  ignore (Engine.Vec.pop_last v);
  ignore (Engine.Vec.pop_last v);
  Alcotest.(check (option int)) "pop empty" None (Engine.Vec.pop_last v)

let test_vec_conversions () =
  let v = Engine.Vec.of_list [ 5; 6; 7 ] in
  Alcotest.(check (list int)) "to_list" [ 5; 6; 7 ] (Engine.Vec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 5; 6; 7 |] (Engine.Vec.to_array v);
  Alcotest.(check int) "fold" 18 (Engine.Vec.fold_left ( + ) 0 v)

(* ------------------------------------------------------------------ *)
(* Event_queue                                                        *)
(* ------------------------------------------------------------------ *)

let test_eq_ordering () =
  let q = Engine.Event_queue.create () in
  Engine.Event_queue.push q ~time:3.0 "c";
  Engine.Event_queue.push q ~time:1.0 "a";
  Engine.Event_queue.push q ~time:2.0 "b";
  let pop () =
    match Engine.Event_queue.pop q with
    | Some (_, x) -> x
    | None -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Engine.Event_queue.is_empty q)

let test_eq_fifo_ties () =
  let q = Engine.Event_queue.create () in
  for i = 0 to 9 do
    Engine.Event_queue.push q ~time:1.0 i
  done;
  for i = 0 to 9 do
    match Engine.Event_queue.pop q with
    | Some (_, x) -> Alcotest.(check int) "FIFO among ties" i x
    | None -> Alcotest.fail "unexpected empty"
  done

let test_eq_peek () =
  let q = Engine.Event_queue.create () in
  Alcotest.(check (option (float 0.))) "peek empty" None
    (Engine.Event_queue.peek_time q);
  Engine.Event_queue.push q ~time:4.2 ();
  Alcotest.(check (option (float 1e-9))) "peek" (Some 4.2)
    (Engine.Event_queue.peek_time q);
  Alcotest.(check int) "size" 1 (Engine.Event_queue.size q)

let test_eq_interleaved () =
  (* Random interleaving of pushes and pops must always pop in
     non-decreasing time order. *)
  let r = Engine.Rng.create ~seed:47 in
  let q = Engine.Event_queue.create () in
  let last = ref neg_infinity in
  for _ = 1 to 10_000 do
    if Engine.Rng.bool r || Engine.Event_queue.is_empty q then
      Engine.Event_queue.push q ~time:(Engine.Rng.float r) ()
    else begin
      match Engine.Event_queue.pop q with
      | Some (t, ()) ->
        if t < !last -. 1e-12 then Alcotest.fail "pop went backwards";
        last := t
      | None -> ()
    end;
    (* Monotonicity only holds among pops between which no earlier-timed
       push happened; reset the watermark on push. *)
    last := neg_infinity
  done;
  (* Drain and check global order of remaining items. *)
  let prev = ref neg_infinity in
  let rec drain () =
    match Engine.Event_queue.pop q with
    | Some (t, ()) ->
      if t < !prev then Alcotest.fail "drain out of order";
      prev := t;
      drain ()
    | None -> ()
  in
  drain ()

let prop_eq_sorted =
  QCheck.Test.make ~name:"event_queue pops sorted" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let q = Engine.Event_queue.create () in
      List.iter (fun t -> Engine.Event_queue.push q ~time:t ()) times;
      let rec drain acc =
        match Engine.Event_queue.pop q with
        | Some (t, ()) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let sorted = List.sort Float.compare times in
      popped = sorted)

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                        *)
(* ------------------------------------------------------------------ *)

(* The wheel's horizon at the defaults is 2^12 ticks of 2^-24 s = ~244 us;
   times comfortably beyond it exercise the overflow heap. *)
let far = 1e-3

let test_tw_ordering () =
  let q = Engine.Timer_wheel.create () in
  Engine.Timer_wheel.push q ~time:3e-6 "c";
  Engine.Timer_wheel.push q ~time:1e-6 "a";
  Engine.Timer_wheel.push q ~time:2e-6 "b";
  let pop () =
    match Engine.Timer_wheel.pop q with
    | Some (_, x) -> x
    | None -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Engine.Timer_wheel.is_empty q)

let test_tw_same_instant_fifo () =
  (* FIFO among equal times must hold both inside a wheel slot and
     inside the overflow heap. *)
  let q = Engine.Timer_wheel.create () in
  for i = 0 to 9 do
    Engine.Timer_wheel.push q ~time:1e-6 i
  done;
  for i = 10 to 19 do
    Engine.Timer_wheel.push q ~time:far i
  done;
  Alcotest.(check int) "size" 20 (Engine.Timer_wheel.size q);
  for i = 0 to 19 do
    match Engine.Timer_wheel.pop q with
    | Some (_, x) -> Alcotest.(check int) "FIFO among ties" i x
    | None -> Alcotest.fail "unexpected empty"
  done

let test_tw_far_future_overflow () =
  (* Far-future events park in the overflow heap yet still interleave
     exactly with wheel-resident ones, including events pushed into the
     wheel after its base has advanced past the original horizon. *)
  let q = Engine.Timer_wheel.create () in
  Engine.Timer_wheel.push q ~time:far "far";
  Engine.Timer_wheel.push q ~time:1e-6 "near";
  Engine.Timer_wheel.push q ~time:(2. *. far) "farther";
  let pop () =
    match Engine.Timer_wheel.pop q with
    | Some (t, x) -> (t, x)
    | None -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check string) "wheel first" "near" (snd (pop ()));
  let t_far, x_far = pop () in
  Alcotest.(check string) "overflow next" "far" x_far;
  check_float "overflow time preserved" far t_far;
  (* The base now sits at [far]; a nearby time lands back in the wheel
     and must beat the remaining heap entry. *)
  Engine.Timer_wheel.push q ~time:(far +. 1e-6) "back-in-wheel";
  Alcotest.(check string) "rewheeled beats heap" "back-in-wheel"
    (snd (pop ()));
  Alcotest.(check string) "heap drains last" "farther" (snd (pop ()));
  Alcotest.(check bool) "empty" true (Engine.Timer_wheel.is_empty q)

let test_tw_pop_allocation () =
  (* One far-future event (an SLO tick, say) waits in the overflow heap
     while near-term events drain ahead of it.  Every pop compares the
     wheel head against the heap top: [pop_before] must do it allocating
     nothing at all, and [pop] nothing beyond its own result (a [Some]
     and a pair, 5 words). *)
  let n = 10_000 in
  let fill q =
    Engine.Timer_wheel.push q ~time:far (-1);
    for i = 0 to n - 1 do
      Engine.Timer_wheel.push q ~time:(float_of_int i *. 1e-8) i
    done
  in
  let q = Engine.Timer_wheel.create () in
  fill q;
  let sum = ref 0 in
  let consume _ x = sum := !sum + x in
  (* Opaque, so the loop passes one boxed horizon rather than reboxing an
     unboxed local at every call. *)
  let horizon = Sys.opaque_identity (far /. 2.) in
  let w0 = Gc.minor_words () in
  while Engine.Timer_wheel.pop_before q ~horizon consume do
    ()
  done;
  (* The delta includes the first probe's own boxed float (2 words). *)
  let words = Gc.minor_words () -. w0 -. 2. in
  Alcotest.(check int) "near-term events popped in order" (n * (n - 1) / 2) !sum;
  Alcotest.(check int) "far event still pending" 1 (Engine.Timer_wheel.size q);
  Alcotest.(check (float 0.)) "pop_before: 0 words per pop" 0.
    (Float.round (words /. float_of_int n));
  let q = Engine.Timer_wheel.create () in
  fill q;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Engine.Timer_wheel.pop q))
  done;
  let words = Gc.minor_words () -. w0 -. 2. in
  Alcotest.(check (float 0.)) "pop: only its result, 5 words per pop" 5.
    (Float.round (words /. float_of_int n))

let prop_tw_matches_event_queue =
  (* Differential: on any batch of (possibly tied, possibly
     beyond-horizon) times, the wheel pops the exact sequence the
     binary-heap Event_queue does, payloads included. *)
  QCheck.Test.make ~name:"timer wheel matches event queue" ~count:200
    QCheck.(list (int_bound 200))
    (fun grid ->
      let wheel = Engine.Timer_wheel.create () in
      let heap = Engine.Event_queue.create () in
      List.iteri
        (fun i g ->
          (* 0..200 us on a 1 us grid: dense ties, both sides of the
             ~65 us horizon. *)
          let time = float_of_int g *. 1e-6 in
          Engine.Timer_wheel.push wheel ~time i;
          Engine.Event_queue.push heap ~time i)
        grid;
      let rec drain pop acc =
        match pop () with
        | Some (t, x) -> drain pop ((t, x) :: acc)
        | None -> List.rev acc
      in
      drain (fun () -> Engine.Timer_wheel.pop wheel) []
      = drain (fun () -> Engine.Event_queue.pop heap) [])

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.Sim.now sim) :: !log in
  ignore (Engine.Sim.schedule_at sim ~time:2.0 (note "b"));
  ignore (Engine.Sim.schedule_at sim ~time:1.0 (note "a"));
  ignore (Engine.Sim.schedule_at sim ~time:3.0 (note "c"));
  Engine.Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "fired in order"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_sim_cascade () =
  (* Events scheduling further events. *)
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then ignore (Engine.Sim.schedule_after sim ~delay:1.0 tick)
  in
  ignore (Engine.Sim.schedule_after sim ~delay:1.0 tick);
  Engine.Sim.run sim;
  Alcotest.(check int) "ten ticks" 10 !count;
  check_float "clock at last tick" 10.0 (Engine.Sim.now sim)

let test_sim_cancel () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule_at sim ~time:1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.Sim.is_pending h);
  Engine.Sim.cancel h;
  Alcotest.(check bool) "not pending" false (Engine.Sim.is_pending h);
  Engine.Sim.run sim;
  Alcotest.(check bool) "never fired" false !fired

let test_sim_until () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t ->
      ignore (Engine.Sim.schedule_at sim ~time:t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.Sim.run ~until:2.5 sim;
  Alcotest.(check (list (float 1e-9))) "only early events" [ 1.0; 2.0 ]
    (List.rev !fired);
  check_float "clock advanced to horizon" 2.5 (Engine.Sim.now sim);
  Engine.Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "rest after resume" [ 1.0; 2.0; 3.0; 4.0 ]
    (List.rev !fired)

let test_sim_past_rejected () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.schedule_at sim ~time:5.0 (fun () -> ()));
  Engine.Sim.run sim;
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "scheduling in the past raises" true
    (raises (fun () -> ignore (Engine.Sim.schedule_at sim ~time:1.0 (fun () -> ()))))

let test_sim_same_time_fifo () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.Sim.schedule_at sim ~time:1.0 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "same-time events fire FIFO"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_handle_free_fifo () =
  (* Handle-free and handled events scheduled for the same instant still
     fire in scheduling order — the wheel sequences them globally. *)
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    if i mod 2 = 0 then
      Engine.Sim.schedule_at_ sim ~time:1.0 (fun () -> log := i :: !log)
    else ignore (Engine.Sim.schedule_at sim ~time:1.0 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "mixed scheduling is FIFO"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_cancel_far_future () =
  (* A cancellable event far beyond the wheel horizon lives in the
     overflow heap; cancelling it there must still work. *)
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  Engine.Sim.schedule_at_ sim ~time:1e-6 (fun () -> fired := "near" :: !fired);
  let h = Engine.Sim.schedule_at sim ~time:1.0 (fun () -> fired := "far" :: !fired) in
  Engine.Sim.cancel h;
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "only the near event fired" [ "near" ] !fired;
  Alcotest.(check int) "cancelled event not counted" 1
    (Engine.Sim.events_fired sim)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Engine.Stats.create () in
  List.iter (Engine.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Engine.Stats.count s);
  check_float "mean" 2.5 (Engine.Stats.mean s);
  check_float "min" 1.0 (Engine.Stats.min s);
  check_float "max" 4.0 (Engine.Stats.max s);
  check_float "sum" 10.0 (Engine.Stats.sum s);
  check_close "variance" ~tolerance:1e-9 (5.0 /. 3.0) (Engine.Stats.variance s)

let test_stats_empty () =
  let s = Engine.Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Engine.Stats.mean s));
  Alcotest.(check bool) "quantile nan" true
    (Float.is_nan (Engine.Stats.quantile s 0.5))

let test_stats_quantiles () =
  let s = Engine.Stats.create () in
  for i = 1 to 100 do
    Engine.Stats.add s (float_of_int i)
  done;
  check_float "p0 = min" 1.0 (Engine.Stats.quantile s 0.0);
  check_float "p100 = max" 100.0 (Engine.Stats.quantile s 1.0);
  check_close "median" ~tolerance:1e-9 50.5 (Engine.Stats.quantile s 0.5)

let test_stats_merge () =
  let a = Engine.Stats.create () in
  let b = Engine.Stats.create () in
  List.iter (Engine.Stats.add a) [ 1.0; 2.0 ];
  List.iter (Engine.Stats.add b) [ 3.0; 4.0 ];
  let m = Engine.Stats.merge a b in
  Alcotest.(check int) "merged count" 4 (Engine.Stats.count m);
  check_float "merged mean" 2.5 (Engine.Stats.mean m);
  check_float "merged quantile" 4.0 (Engine.Stats.quantile m 1.0)

let test_stats_merge_momentwise () =
  let a = Engine.Stats.create ~keep_samples:false () in
  let b = Engine.Stats.create ~keep_samples:false () in
  List.iter (Engine.Stats.add a) [ 1.0; 2.0; 3.0 ];
  List.iter (Engine.Stats.add b) [ 10.0; 20.0 ];
  let m = Engine.Stats.merge a b in
  Alcotest.(check int) "count" 5 (Engine.Stats.count m);
  check_close "mean" ~tolerance:1e-9 7.2 (Engine.Stats.mean m);
  (* Exact variance of {1,2,3,10,20}. *)
  let exact =
    let xs = [ 1.0; 2.0; 3.0; 10.0; 20.0 ] in
    let mu = 7.2 in
    List.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. xs /. 4.
  in
  check_close "variance" ~tolerance:1e-9 exact (Engine.Stats.variance m)

let test_stats_merge_momentwise_empty () =
  (* A fresh accumulator seeds min/max with NaN; merging an empty
     moment-only side must not let that NaN leak into the result. *)
  let a = Engine.Stats.create ~keep_samples:false () in
  let b = Engine.Stats.create ~keep_samples:false () in
  List.iter (Engine.Stats.add a) [ 2.0; 8.0 ];
  let m = Engine.Stats.merge a b in
  Alcotest.(check int) "count" 2 (Engine.Stats.count m);
  check_float "mean" 5.0 (Engine.Stats.mean m);
  check_float "min survives" 2.0 (Engine.Stats.min m);
  check_float "max survives" 8.0 (Engine.Stats.max m);
  let m' = Engine.Stats.merge b a in
  check_float "min (empty first)" 2.0 (Engine.Stats.min m');
  check_float "max (empty first)" 8.0 (Engine.Stats.max m');
  let e = Engine.Stats.merge b (Engine.Stats.create ~keep_samples:false ()) in
  Alcotest.(check int) "empty count" 0 (Engine.Stats.count e);
  Alcotest.(check bool) "empty mean nan" true
    (Float.is_nan (Engine.Stats.mean e))

(* Every reported number, as IEEE-754 bits, for a seeded 10k-value
   stream: whole, sample-kept, and merged from a 6000/4000 split both
   moment-wise and by replay.  Any change to the float operations of
   [add] or [merge_into], or to their order, shows here. *)
let stats_golden =
  [
    ("moments.mean", 0x40195708eac2f49dL);
    ("moments.variance", 0x406de12f146922acL);
    ("moments.min", 0xbfefff544f387e73L);
    ("moments.max", 0x4050000000000000L);
    ("moments.sum", 0x40eeeebe6292fbd8L);
    ("kept.mean", 0x40195708eac2f49dL);
    ("kept.variance", 0x406de12f146922acL);
    ("kept.min", 0xbfefff544f387e73L);
    ("kept.max", 0x4050000000000000L);
    ("kept.sum", 0x40eeeebe6292fbd8L);
    ("kept.p50", 0x3ef1362b8b2a91a4L);
    ("kept.p99", 0x404f000000000000L);
    ("merged_moments.mean", 0x40195708eac2f4acL);
    ("merged_moments.variance", 0x406de12f1469229fL);
    ("merged_moments.min", 0xbfefff544f387e73L);
    ("merged_moments.max", 0x4050000000000000L);
    ("merged_moments.sum", 0x40eeeebe6292fbb8L);
    ("merged_kept.mean", 0x40195708eac2f49dL);
    ("merged_kept.variance", 0x406de12f146922acL);
    ("merged_kept.min", 0xbfefff544f387e73L);
    ("merged_kept.max", 0x4050000000000000L);
    ("merged_kept.sum", 0x40eeeebe6292fbd8L);
  ]

let test_stats_golden_bits () =
  let xs = Pins.stream 10_000 in
  let summary name s =
    let open Engine.Stats in
    [
      (name ^ ".mean", mean s);
      (name ^ ".variance", variance s);
      (name ^ ".min", min s);
      (name ^ ".max", max s);
      (name ^ ".sum", sum s);
    ]
  in
  let fill keep lo hi =
    let s = Engine.Stats.create ~keep_samples:keep () in
    for i = lo to hi - 1 do
      Engine.Stats.add s xs.(i)
    done;
    s
  in
  let whole = fill false 0 10_000 in
  let kept = fill true 0 10_000 in
  let a = fill false 0 6_000 in
  Engine.Stats.merge_into ~into:a (fill false 6_000 10_000);
  let ka = fill true 0 6_000 in
  Engine.Stats.merge_into ~into:ka (fill true 6_000 10_000);
  Pins.check_bits ~expected:stats_golden
    (summary "moments" whole @ summary "kept" kept
    @ [
        ("kept.p50", Engine.Stats.quantile kept 0.5);
        ("kept.p99", Engine.Stats.quantile kept 0.99);
      ]
    @ summary "merged_moments" a @ summary "merged_kept" ka)

let test_stats_add_allocation () =
  let xs = Pins.stream 8192 in
  let s = Engine.Stats.create ~keep_samples:false () in
  let i = ref 0 in
  let w =
    Pins.words_per_call (fun () ->
        incr i;
        Engine.Stats.add s xs.(!i land 8191))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per add: at most the boxed argument's 2" w)
    true (w <= 2.)

let prop_stats_merge_moments_match_samples =
  (* The closed-form moment merge must agree with re-adding every sample. *)
  QCheck.Test.make ~name:"moment-only merge agrees with sample merge"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 60) (float_bound_inclusive 1e3))
        (list_of_size (Gen.int_range 0 60) (float_bound_inclusive 1e3)))
    (fun (xs, ys) ->
      let fill keep vals =
        let s = Engine.Stats.create ~keep_samples:keep () in
        List.iter (Engine.Stats.add s) vals;
        s
      in
      let mm = Engine.Stats.merge (fill false xs) (fill false ys) in
      let sm = Engine.Stats.merge (fill true xs) (fill true ys) in
      let close a b =
        (Float.is_nan a && Float.is_nan b)
        || abs_float (a -. b) <= 1e-6 *. (1. +. abs_float b)
      in
      Engine.Stats.count mm = Engine.Stats.count sm
      && close (Engine.Stats.mean mm) (Engine.Stats.mean sm)
      && close (Engine.Stats.variance mm) (Engine.Stats.variance sm)
      && close (Engine.Stats.min mm) (Engine.Stats.min sm)
      && close (Engine.Stats.max mm) (Engine.Stats.max sm))

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"stats mean matches naive sum/n" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (float_bound_inclusive 1e6))
    (fun xs ->
      let s = Engine.Stats.create () in
      List.iter (Engine.Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      abs_float (Engine.Stats.mean s -. naive) <= 1e-6 *. (1. +. abs_float naive))

let prop_stats_minmax =
  QCheck.Test.make ~name:"stats min/max bound all samples" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 1e3))
    (fun xs ->
      let s = Engine.Stats.create () in
      List.iter (Engine.Stats.add s) xs;
      List.for_all
        (fun x -> Engine.Stats.min s <= x && x <= Engine.Stats.max s)
        xs)

(* ------------------------------------------------------------------ *)
(* P2_quantile                                                        *)
(* ------------------------------------------------------------------ *)

(* P² estimates as IEEE-754 bits for the same seeded stream: whole,
   merged from a 6000/4000 split, and merged with a three-value sketch
   (the exact-replay branch).  Pins the marker arithmetic bit for bit. *)
let p2_golden =
  [
    ("p50", 0x3ef20cfa2db6bc1bL);
    ("p50.merged", 0x3fe10ef54c5ff8a1L);
    ("p50.merged_small", 0x3ef0d9dae03a042eL);
    ("p90", 0x404017f96f15b37dL);
    ("p90.merged", 0x40437c4a9eb69b0dL);
    ("p90.merged_small", 0x40403f493dd053b4L);
    ("p99", 0x404ed143a4a10e51L);
    ("p99.merged", 0x404f22d913da8b55L);
    ("p99.merged_small", 0x404ed3d9530fa0d5L);
  ]

let test_p2_golden_bits () =
  let xs = Pins.stream 10_000 in
  Pins.check_bits ~expected:p2_golden
    (List.concat_map
       (fun (tag, q) ->
         let fill lo hi =
           let s = Engine.P2_quantile.create ~q in
           for i = lo to hi - 1 do
             Engine.P2_quantile.add s xs.(i)
           done;
           s
         in
         let a = fill 0 6_000 in
         Engine.P2_quantile.merge_into ~into:a (fill 6_000 10_000);
         let small = fill 0 6_000 in
         Engine.P2_quantile.merge_into ~into:small (fill 6_000 6_003);
         [
           (tag, Engine.P2_quantile.estimate (fill 0 10_000));
           (tag ^ ".merged", Engine.P2_quantile.estimate a);
           (tag ^ ".merged_small", Engine.P2_quantile.estimate small);
         ])
       [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ])

let test_p2_add_allocation () =
  let xs = Pins.stream 8192 in
  List.iter
    (fun q ->
      let s = Engine.P2_quantile.create ~q in
      let i = ref 0 in
      let w =
        Pins.words_per_call (fun () ->
            incr i;
            Engine.P2_quantile.add s xs.(!i land 8191))
      in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g: %.2f words per add, at most the boxed argument's 2"
           q w)
        true (w <= 2.))
    [ 0.5; 0.9; 0.99 ]

let test_p2_median_uniform () =
  let p2 = Engine.P2_quantile.create ~q:0.5 in
  let r = Engine.Rng.create ~seed:53 in
  for _ = 1 to 50_000 do
    Engine.P2_quantile.add p2 (Engine.Rng.float r)
  done;
  check_close "median ~ 0.5" ~tolerance:0.02 0.5 (Engine.P2_quantile.estimate p2)

let test_p2_p99_uniform () =
  let p2 = Engine.P2_quantile.create ~q:0.99 in
  let r = Engine.Rng.create ~seed:59 in
  for _ = 1 to 50_000 do
    Engine.P2_quantile.add p2 (Engine.Rng.float r)
  done;
  check_close "p99 ~ 0.99" ~tolerance:0.02 0.99 (Engine.P2_quantile.estimate p2)

let test_p2_small_stream_exact () =
  let p2 = Engine.P2_quantile.create ~q:0.5 in
  List.iter (Engine.P2_quantile.add p2) [ 3.0; 1.0; 2.0 ];
  check_float "exact small-sample median" 2.0 (Engine.P2_quantile.estimate p2)

let test_p2_empty () =
  let p2 = Engine.P2_quantile.create ~q:0.5 in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Engine.P2_quantile.estimate p2))

let test_p2_invalid_q () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "q = 0 rejected" true
    (raises (fun () -> ignore (Engine.P2_quantile.create ~q:0.)));
  Alcotest.(check bool) "q = 1 rejected" true
    (raises (fun () -> ignore (Engine.P2_quantile.create ~q:1.)))

let prop_p2_within_range =
  QCheck.Test.make ~name:"p2 estimate stays within sample range" ~count:100
    QCheck.(list_of_size (Gen.int_range 6 500) (float_bound_inclusive 1e3))
    (fun xs ->
      let p2 = Engine.P2_quantile.create ~q:0.9 in
      List.iter (Engine.P2_quantile.add p2) xs;
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      let e = Engine.P2_quantile.estimate p2 in
      lo <= e && e <= hi)

(* ------------------------------------------------------------------ *)
(* Timeseries                                                         *)
(* ------------------------------------------------------------------ *)

let test_ts_basic () =
  let ts = Engine.Timeseries.create ~bucket:1.0 () in
  Engine.Timeseries.add ts ~time:0.5 10.;
  Engine.Timeseries.add ts ~time:0.9 5.;
  Engine.Timeseries.add ts ~time:2.1 7.;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "buckets with gap"
    [ (0., 15.); (1., 0.); (2., 7.) ]
    (Engine.Timeseries.buckets ts);
  check_float "total" 22. (Engine.Timeseries.total ts)

let test_ts_rate () =
  let ts = Engine.Timeseries.create ~bucket:0.5 () in
  Engine.Timeseries.add ts ~time:0.1 100.;
  (match Engine.Timeseries.rate ts with
  | [ (_, r) ] -> check_float "rate = sum / width" 200. r
  | _ -> Alcotest.fail "expected one bucket")

let test_ts_rate_multi_bucket () =
  (* Rates across several buckets, including an empty gap bucket. *)
  let ts = Engine.Timeseries.create ~bucket:0.5 () in
  Engine.Timeseries.add ts ~time:0.1 100.;
  Engine.Timeseries.add ts ~time:0.3 100.;
  Engine.Timeseries.add ts ~time:0.6 25.;
  Engine.Timeseries.add ts ~time:1.6 50.;
  match Engine.Timeseries.rate ts with
  | [ (t0, r0); (_, r1); (_, r2); (_, r3) ] ->
    check_float "first bucket start" 0. t0;
    check_float "bucket 0 rate" 400. r0;
    check_float "bucket 1 rate" 50. r1;
    check_float "gap bucket rate" 0. r2;
    check_float "bucket 3 rate" 100. r3
  | l -> Alcotest.failf "expected four buckets, got %d" (List.length l)

let test_ts_empty () =
  let ts = Engine.Timeseries.create ~bucket:1.0 () in
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "empty" []
    (Engine.Timeseries.buckets ts);
  check_float "zero total" 0. (Engine.Timeseries.total ts)

let test_ts_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero bucket" true
    (raises (fun () -> ignore (Engine.Timeseries.create ~bucket:0. ())));
  let ts = Engine.Timeseries.create ~bucket:1.0 () in
  Alcotest.(check bool) "negative time" true
    (raises (fun () -> Engine.Timeseries.add ts ~time:(-1.) 1.))

let test_ts_out_of_order () =
  let ts = Engine.Timeseries.create ~bucket:1.0 () in
  Engine.Timeseries.add ts ~time:5.0 1.;
  Engine.Timeseries.add ts ~time:1.0 2.;
  (match Engine.Timeseries.buckets ts with
  | (t0, v0) :: _ ->
    check_float "starts at earliest" 1.0 t0;
    check_float "earliest sum" 2.0 v0
  | [] -> Alcotest.fail "no buckets");
  Alcotest.(check int) "span" 5 (List.length (Engine.Timeseries.buckets ts))

(* ------------------------------------------------------------------ *)
(* Merge machinery (P²)                                                *)
(* ------------------------------------------------------------------ *)

let test_p2_merge_small_exact () =
  (* Sketches with <= 5 observations replay raw values: merging two small
     sketches equals one sketch fed everything. *)
  let a = Engine.P2_quantile.create ~q:0.5 in
  let b = Engine.P2_quantile.create ~q:0.5 in
  List.iter (Engine.P2_quantile.add a) [ 1.; 9. ];
  List.iter (Engine.P2_quantile.add b) [ 5.; 3. ];
  Engine.P2_quantile.merge_into ~into:a b;
  let direct = Engine.P2_quantile.create ~q:0.5 in
  List.iter (Engine.P2_quantile.add direct) [ 1.; 9.; 5.; 3. ];
  Alcotest.(check int) "counts add" 4 (Engine.P2_quantile.count a);
  check_float "small merge exact" (Engine.P2_quantile.estimate direct)
    (Engine.P2_quantile.estimate a)

let test_p2_merge_deterministic () =
  let build () =
    let sketches =
      List.init 3 (fun k ->
          let s = Engine.P2_quantile.create ~q:0.9 in
          for i = 0 to 99 do
            Engine.P2_quantile.add s (float_of_int (i + (100 * k)))
          done;
          s)
    in
    let into = Engine.P2_quantile.create ~q:0.9 in
    List.iter (fun s -> Engine.P2_quantile.merge_into ~into s) sketches;
    Engine.P2_quantile.estimate into
  in
  check_float "same merge order, same estimate" (build ()) (build ());
  (* The approximate merge must still land inside the observed range and
     near the true p90 of 0..299. *)
  let e = build () in
  Alcotest.(check bool) "estimate plausible" true (e > 200. && e < 300.)

let test_p2_merge_empty_and_mismatch () =
  let a = Engine.P2_quantile.create ~q:0.5 in
  Engine.P2_quantile.add a 4.;
  let empty = Engine.P2_quantile.create ~q:0.5 in
  Engine.P2_quantile.merge_into ~into:a empty;
  Alcotest.(check int) "empty src is a no-op" 1 (Engine.P2_quantile.count a);
  let other = Engine.P2_quantile.create ~q:0.99 in
  Alcotest.(check bool) "quantile mismatch rejected" true
    (try
       Engine.P2_quantile.merge_into ~into:a other;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Rng.derive                                                          *)
(* ------------------------------------------------------------------ *)

let test_rng_derive () =
  let s1 = Engine.Rng.derive ~seed:1 0 in
  Alcotest.(check int) "deterministic" s1 (Engine.Rng.derive ~seed:1 0);
  Alcotest.(check bool) "index-sensitive" true
    (s1 <> Engine.Rng.derive ~seed:1 1);
  Alcotest.(check bool) "seed-sensitive" true
    (s1 <> Engine.Rng.derive ~seed:2 0);
  List.iter
    (fun i ->
      Alcotest.(check bool) "non-negative" true
        (Engine.Rng.derive ~seed:12345 i >= 0))
    [ 0; 1; 7; 1000 ];
  Alcotest.(check bool) "negative index rejected" true
    (try
       ignore (Engine.Rng.derive ~seed:1 (-1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Parallel                                                            *)
(* ------------------------------------------------------------------ *)

let test_parallel_default_jobs () =
  Alcotest.(check bool) "at least one worker" true
    (Engine.Parallel.default_jobs () >= 1)

let test_parallel_empty () =
  Alcotest.(check (list int)) "empty in, empty out (serial)" []
    (Engine.Parallel.map ~jobs:1 (fun x -> x) []);
  Alcotest.(check (list int)) "empty in, empty out (parallel)" []
    (Engine.Parallel.map ~jobs:4 (fun x -> x) [])

let test_parallel_ordering () =
  let items = List.init 50 Fun.id in
  let expected = List.map (fun x -> x * x) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved at jobs=%d" jobs)
        expected
        (Engine.Parallel.map ~jobs (fun x -> x * x) items))
    [ 1; 2; 4; 8 ]

exception Boom of int

let test_parallel_try_map_errors () =
  let results =
    Engine.Parallel.try_map ~jobs:4
      (fun x -> if x = 2 then raise (Boom x) else x * 10)
      [ 0; 1; 2; 3 ]
  in
  let expect i = function
    | Ok v -> Alcotest.(check int) "ok value" (i * 10) v
    | Error (Boom n) when i = 2 -> Alcotest.(check int) "failing item" 2 n
    | Error e -> Alcotest.failf "unexpected error: %s" (Printexc.to_string e)
  in
  Alcotest.(check int) "arity" 4 (List.length results);
  List.iteri
    (fun i r ->
      if i = 2 then
        match r with
        | Error (Boom 2) -> ()
        | _ -> Alcotest.fail "index 2 should carry Boom"
      else expect i r)
    results

let test_parallel_map_reraises () =
  Alcotest.(check bool) "map re-raises the worker exception" true
    (try
       ignore (Engine.Parallel.map ~jobs:4 (fun x -> if x >= 3 then raise (Boom x) else x)
                 [ 0; 1; 2; 3; 4 ]);
       false
     with Boom 3 -> true)

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

let json_eq = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Engine.Json.to_string j)) ( = )

let parse_json s =
  match Engine.Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_atoms () =
  Alcotest.check json_eq "null" Engine.Json.Null (parse_json "null");
  Alcotest.check json_eq "true" (Engine.Json.Bool true) (parse_json "true");
  Alcotest.check json_eq "number" (Engine.Json.Number 42.) (parse_json "42");
  Alcotest.check json_eq "negative float" (Engine.Json.Number (-2.5)) (parse_json "-2.5");
  Alcotest.check json_eq "string" (Engine.Json.String "hi") (parse_json "\"hi\"")

let test_json_structures () =
  Alcotest.check json_eq "array"
    (Engine.Json.List [ Engine.Json.Number 1.; Engine.Json.Number 2. ])
    (parse_json "[1, 2]");
  Alcotest.check json_eq "object"
    (Engine.Json.Obj [ ("a", Engine.Json.Number 1.); ("b", Engine.Json.List []) ])
    (parse_json "{\"a\": 1, \"b\": []}");
  Alcotest.check json_eq "nested"
    (Engine.Json.Obj [ ("x", Engine.Json.Obj [ ("y", Engine.Json.Null) ]) ])
    (parse_json "{\"x\":{\"y\":null}}")

let test_json_escapes () =
  let original = Engine.Json.String "line\nquote\"back\\tab\t" in
  let round = parse_json (Engine.Json.to_string original) in
  Alcotest.check json_eq "escape round trip" original round;
  Alcotest.check json_eq "unicode escape" (Engine.Json.String "A") (parse_json "\"\\u0041\"")

let test_json_errors () =
  let is_error s = Result.is_error (Engine.Json.of_string s) in
  Alcotest.(check bool) "empty" true (is_error "");
  Alcotest.(check bool) "trailing" true (is_error "1 2");
  Alcotest.(check bool) "unterminated string" true (is_error "\"abc");
  Alcotest.(check bool) "bare word" true (is_error "nope");
  Alcotest.(check bool) "unclosed array" true (is_error "[1, 2");
  Alcotest.(check bool) "missing colon" true (is_error "{\"a\" 1}")

let test_json_accessors () =
  let v = parse_json "{\"a\": 3, \"b\": \"x\", \"c\": [true]}" in
  Alcotest.(check (option int)) "member int" (Some 3)
    (Option.bind (Engine.Json.member "a" v) Engine.Json.to_int);
  Alcotest.(check (option string)) "member str" (Some "x")
    (Option.bind (Engine.Json.member "b" v) Engine.Json.to_str);
  Alcotest.(check bool) "missing member" true (Engine.Json.member "z" v = None);
  Alcotest.(check (option int)) "non-integral int" None
    (Engine.Json.to_int (Engine.Json.Number 1.5))

let test_json_pretty_reparses () =
  let v =
    parse_json "{\"rows\":[{\"k\":1},{\"k\":2}],\"name\":\"qvisor\"}"
  in
  Alcotest.check json_eq "pretty form reparses"
    v (parse_json (Engine.Json.to_string ~pretty:true v))

let prop_json_round_trip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self size ->
          if size <= 0 then
            oneof
              [
                return Engine.Json.Null;
                map (fun b -> Engine.Json.Bool b) bool;
                map (fun n -> Engine.Json.Number (float_of_int n)) (int_range (-1000) 1000);
                map (fun s -> Engine.Json.String s) (string_size ~gen:printable (int_range 0 10));
              ]
          else
            oneof
              [
                map (fun l -> Engine.Json.List l) (list_size (int_range 0 4) (self (size / 2)));
                map
                  (fun kvs ->
                    (* Duplicate keys break assoc-based comparison. *)
                    let kvs =
                      List.mapi (fun i (k, v) -> (Printf.sprintf "%d%s" i k, v)) kvs
                    in
                    Engine.Json.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:printable (int_range 0 6)) (self (size / 2))));
              ]))
  in
  QCheck.Test.make ~name:"json to_string/of_string round-trips" ~count:300
    (QCheck.make gen) (fun v ->
      match Engine.Json.of_string (Engine.Json.to_string v) with
      | Ok v' -> v = v'
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int_range coverage" `Quick test_rng_int_range;
          Alcotest.test_case "int_range singleton" `Quick test_rng_int_range_singleton;
          Alcotest.test_case "int_range invalid" `Quick test_rng_int_range_invalid;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "pareto minimum" `Quick test_rng_pareto_minimum;
          Alcotest.test_case "pair_distinct" `Quick test_rng_pair_distinct;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "point mass" `Quick test_empirical_point_mass;
          Alcotest.test_case "uniform mean" `Quick test_empirical_mean_uniform;
          Alcotest.test_case "sample support" `Quick test_empirical_sample_range;
          Alcotest.test_case "invalid inputs" `Quick test_empirical_invalid;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "peek/size" `Quick test_eq_peek;
          Alcotest.test_case "interleaved" `Quick test_eq_interleaved;
          qc prop_eq_sorted;
        ] );
      ( "timer_wheel",
        [
          Alcotest.test_case "ordering" `Quick test_tw_ordering;
          Alcotest.test_case "same-instant FIFO" `Quick test_tw_same_instant_fifo;
          Alcotest.test_case "far-future overflow" `Quick
            test_tw_far_future_overflow;
          Alcotest.test_case "pops allocate nothing behind a far event" `Quick
            test_tw_pop_allocation;
          qc prop_tw_matches_event_queue;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "cascade" `Quick test_sim_cascade;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "same-time FIFO" `Quick test_sim_same_time_fifo;
          Alcotest.test_case "handle-free same-time FIFO" `Quick
            test_sim_handle_free_fifo;
          Alcotest.test_case "cancel far-future" `Quick
            test_sim_cancel_far_future;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge momentwise" `Quick test_stats_merge_momentwise;
          Alcotest.test_case "merge momentwise empty" `Quick
            test_stats_merge_momentwise_empty;
          Alcotest.test_case "golden bits" `Quick test_stats_golden_bits;
          Alcotest.test_case "add allocates only its argument" `Quick
            test_stats_add_allocation;
          qc prop_stats_merge_moments_match_samples;
          qc prop_stats_mean_matches_naive;
          qc prop_stats_minmax;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "basic" `Quick test_ts_basic;
          Alcotest.test_case "rate" `Quick test_ts_rate;
          Alcotest.test_case "rate multi-bucket" `Quick test_ts_rate_multi_bucket;
          Alcotest.test_case "empty" `Quick test_ts_empty;
          Alcotest.test_case "invalid" `Quick test_ts_invalid;
          Alcotest.test_case "out of order" `Quick test_ts_out_of_order;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "default jobs" `Quick test_parallel_default_jobs;
          Alcotest.test_case "empty input" `Quick test_parallel_empty;
          Alcotest.test_case "ordering preserved" `Quick test_parallel_ordering;
          Alcotest.test_case "try_map errors" `Quick test_parallel_try_map_errors;
          Alcotest.test_case "map re-raises first" `Quick
            test_parallel_map_reraises;
          Alcotest.test_case "rng derive" `Quick test_rng_derive;
        ] );
      ( "json",
        [
          Alcotest.test_case "atoms" `Quick test_json_atoms;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "pretty reparses" `Quick test_json_pretty_reparses;
          qc prop_json_round_trip;
        ] );
      ( "p2_quantile",
        [
          Alcotest.test_case "median uniform" `Quick test_p2_median_uniform;
          Alcotest.test_case "p99 uniform" `Quick test_p2_p99_uniform;
          Alcotest.test_case "small stream exact" `Quick test_p2_small_stream_exact;
          Alcotest.test_case "empty" `Quick test_p2_empty;
          Alcotest.test_case "invalid q" `Quick test_p2_invalid_q;
          Alcotest.test_case "merge small exact" `Quick test_p2_merge_small_exact;
          Alcotest.test_case "merge deterministic" `Quick
            test_p2_merge_deterministic;
          Alcotest.test_case "merge empty/mismatch" `Quick
            test_p2_merge_empty_and_mismatch;
          Alcotest.test_case "golden bits" `Quick test_p2_golden_bits;
          Alcotest.test_case "add allocates only its argument" `Quick
            test_p2_add_allocation;
          qc prop_p2_within_range;
        ] );
    ]
