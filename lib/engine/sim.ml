type handle = { mutable live : bool; action : unit -> unit }

(* Hot-path events skip the handle record entirely: the per-packet
   transmit/arrival events in the network simulator are never cancelled,
   so boxing a cancellation flag for each of them is pure overhead. *)
type ev = Fun of (unit -> unit) | H of handle

type t = {
  mutable clock : float;
  queue : ev Timer_wheel.t;
  mutable fired : int;
  mutable busy : float; (* wall-clock seconds spent inside [run] *)
  profiler : Span.t;
}

let create ?(profiler = Span.disabled) () =
  {
    clock = 0.;
    queue = Timer_wheel.create ();
    fired = 0;
    busy = 0.;
    profiler;
  }

let now t = t.clock

let check_time t time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now %g" time t.clock)

let schedule_at t ~time f =
  check_time t time;
  let h = { live = true; action = f } in
  Timer_wheel.push t.queue ~time (H h);
  h

let schedule_after t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let schedule_at_ t ~time f =
  check_time t time;
  Timer_wheel.push t.queue ~time (Fun f)

let schedule_after_ t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at_ t ~time:(t.clock +. delay) f

let cancel h = h.live <- false

let is_pending h = h.live

let fire t time ev =
  t.clock <- time;
  match ev with
  | Fun f ->
    t.fired <- t.fired + 1;
    f ()
  | H h ->
    if h.live then begin
      h.live <- false;
      t.fired <- t.fired + 1;
      h.action ()
    end

let step t =
  match Timer_wheel.pop t.queue with
  | None -> false
  | Some (time, ev) ->
    fire t time ev;
    true

let run ?until t =
  Span.with_ t.profiler ~name:"sim.run" (fun () ->
      let started = Unix.gettimeofday () in
      (match until with
      | None -> while step t do () done
      | Some horizon ->
        (* A two-argument closure, so the wheel calls it directly. *)
        let fire_ev time ev = fire t time ev in
        while Timer_wheel.pop_before t.queue ~horizon fire_ev do
          ()
        done;
        t.clock <- max t.clock horizon);
      t.busy <- t.busy +. (Unix.gettimeofday () -. started))

let pending_events t = Timer_wheel.size t.queue

let events_fired t = t.fired

let busy_seconds t = t.busy
