(* Sampled timing wrappers that the traced run puts around calls into a
   layer's public functions.

   Every wrapped call bumps its probe's counter; one call in
   [sample_every] is also timed with the monotonic nanosecond clock and
   has its allocation measured.  While a timed call is open, calls it
   makes into other wrapped layers are timed too, and their time and
   allocation are subtracted from the outer call's, so each probe
   reports self cost: a transport [deliver] that sends an ACK does not
   count the ACK's pre-processing and enqueue.  The clock read and the
   frame's own bookkeeping are calibrated once and subtracted.

   Accumulators live in float arrays so that the timed path itself
   allocates nothing but the two allocation probes it corrects for. *)

let sample_every = 64

let mask = sample_every - 1

let now_ns () = Monotonic_clock.now ()

type t = {
  name : string;
  mutable ops : int;
  mutable samples : int;
  acc : float array;  (* 0: summed self ns; 1: summed self bytes *)
}

let create name = { name; ops = 0; samples = 0; acc = [| 0.; 0. |] }

let ops p = p.ops

(* Mean self time of a sampled call, in ns ([0.] before any sample). *)
let ns_per_op p =
  if p.samples = 0 then 0. else p.acc.(0) /. float_of_int p.samples

let bytes_per_op p =
  if p.samples = 0 then 0. else p.acc.(1) /. float_of_int p.samples

(* Estimated total self time of all calls, in seconds. *)
let total_s p = float_of_int p.ops *. ns_per_op p *. 1e-9

(* Timed calls currently open. *)
let open_frames = ref 0

(* 0: ns charged by nested frames; 1: bytes charged by nested frames;
   2: cost of one clock read; 3: ns of an empty frame seen from outside;
   4: bytes an empty frame measures for itself; 5: bytes of an empty
   frame seen from outside *)
let st = [| 0.; 0.; 0.; 0.; 0.; 0. |]

(* Time [f x y] as one call of [p] ([own]: a sample of [p]'s own, else
   a call nested in another probe's timed call). *)
let[@inline never] frame p own f x y =
  let saved_ns = st.(0) and saved_b = st.(1) in
  st.(0) <- 0.;
  st.(1) <- 0.;
  incr open_frames;
  let b0 = Engine.Perf.allocated_bytes () in
  let t0 = now_ns () in
  let r = f x y in
  let t1 = now_ns () in
  let b1 = Engine.Perf.allocated_bytes () in
  decr open_frames;
  let total_ns = Int64.to_float (Int64.sub t1 t0) -. st.(2) in
  let total_b = b1 -. b0 -. Engine.Perf.probe_overhead_bytes -. st.(4) in
  if own then begin
    p.samples <- p.samples + 1;
    p.acc.(0) <- p.acc.(0) +. (total_ns -. st.(0));
    p.acc.(1) <- p.acc.(1) +. (total_b -. st.(1))
  end;
  st.(0) <- saved_ns +. total_ns +. st.(3);
  st.(1) <- saved_b +. total_b +. st.(5);
  r

(* A closed function, so passing it allocates nothing. *)
let apply f x = f x

let wrap1 p f x =
  p.ops <- p.ops + 1;
  let own = p.ops land mask = 0 in
  if own || !open_frames > 0 then frame p own apply f x else f x

let wrap2 p f x y =
  p.ops <- p.ops + 1;
  let own = p.ops land mask = 0 in
  if own || !open_frames > 0 then frame p own f x y else f x y

(* Calibrate the clock read and an empty frame's cost seen from outside
   as medians over many back-to-back measurements, and the bytes an empty
   frame measures for itself as a mean. *)
let calibrate () =
  let n = 20_001 in
  let clock =
    List.init n (fun _ ->
        let t0 = now_ns () in
        let t1 = now_ns () in
        Int64.to_float (Int64.sub t1 t0))
  in
  st.(2) <- Stats.median clock;
  let dummy = create "calibration" in
  let noop () = () in
  let nested =
    List.init n (fun _ ->
        let t0 = now_ns () in
        frame dummy false apply noop ();
        let t1 = now_ns () in
        Int64.to_float (Int64.sub t1 t0) -. st.(2))
  in
  st.(0) <- 0.;
  st.(1) <- 0.;
  st.(3) <- Stats.median nested;
  for _ = 1 to n do
    frame dummy true apply noop ()
  done;
  st.(0) <- 0.;
  st.(1) <- 0.;
  st.(4) <- bytes_per_op dummy;
  let outside =
    List.init n (fun _ ->
        let b0 = Engine.Perf.allocated_bytes () in
        frame dummy false apply noop ();
        Engine.Perf.allocated_bytes () -. b0 -. Engine.Perf.probe_overhead_bytes)
  in
  st.(0) <- 0.;
  st.(1) <- 0.;
  st.(5) <- Stats.median outside

(* A queue discipline whose enqueue and dequeue go through [enq] and
   [deq]; everything else is the wrapped discipline's own. *)
let qdisc ~enq ~deq (q : Sched.Qdisc.t) =
  Sched.Qdisc.make ~name:q.Sched.Qdisc.name
    ~enqueue_drop:(fun p on_drop -> wrap2 enq q.Sched.Qdisc.enqueue_drop p on_drop)
    ~dequeue:(fun () -> wrap1 deq q.Sched.Qdisc.dequeue ())
    ~peek:q.Sched.Qdisc.peek ~length:q.Sched.Qdisc.length
    ~bytes:q.Sched.Qdisc.bytes ~drops:q.Sched.Qdisc.drops
