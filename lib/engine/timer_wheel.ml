(* Timer-wheel event queue: a single-level wheel of 2^k tick slots over a
   near horizon, backed by the binary-heap {!Event_queue} for events beyond
   it.  Virtual times are quantized to integer ticks (floor division by the
   tick size, monotone in time); each slot holds a list sorted by
   (time, global push sequence), and pops compare the wheel head against
   the overflow head by the same key, so the pop order is exactly the
   (time, push-order) order the heap produced — a drop-in replacement with
   O(1) push and near-O(1) pop for the dense near-future traffic a network
   simulation generates.

   Invariants:
   - [base] is the tick of the last popped event; every queued wheel event
     has tick in [base, base + num_slots), so slot [tick land mask] is a
     bijection and one slot never mixes ticks.
   - Pushes beyond the horizon go to the overflow heap, as the same
     entry nodes the slots hold.  Overflow events are never migrated; they
     win the head-to-head comparison when their (time, seq) comes first,
     which preserves global FIFO-among-equals.  The comparison reads the
     heap top in place, so a pending far-future event (an SLO tick) adds
     no allocation to the near-term pops it waits behind. *)

(* Slot lists use a bespoke Nil/Node variant rather than [option]:
   links are matched, never compared structurally, and no [Some] boxes
   churn on push/pop.  Nodes are deliberately NOT pooled — a fresh
   minor-heap node costs initializing stores only, while recycling one
   turns every field store into a caml_modify write barrier, which
   measures ~50% slower per event. *)
type 'a entry = {
  time : float;
  seq : int;
  payload : 'a;
  mutable next : 'a node;
}

and 'a node = Nil | Node of 'a entry

type 'a t = {
  tick : float;
  inv_tick : float; (* 1/tick: a multiply replaces a division per push *)
  num_slots : int;
  mask : int;
  slots : 'a node array;
  tails : 'a node array;
  levels : int array array; (* hierarchical slot-occupancy bitmaps *)
  num_levels : int;
  mutable base : int; (* tick of the last popped event *)
  (* Earliest occupied wheel tick, or -1 when unknown.  [Sim.run]'s
     horizon loop peeks before every pop; memoizing the head tick makes
     that peek/pop pair one bitmap descent instead of three (a slot
     never mixes ticks, so the cache stays valid until the head slot
     empties). *)
  mutable cached_tick : int;
  mutable wheel_count : int;
  mutable next_seq : int;
  overflow : 'a node Event_queue.t; (* [Node] entries, never [Nil] *)
}

(* Branch-free bit scan (see Sched.Bucket_queue for the derivation);
   a branchy scan mispredicts on every random slot index. *)
let debruijn32 = 0x077CB531

let ntz_table =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let ntz32 x = Array.unsafe_get ntz_table ((((x land -x) * debruijn32) lsr 27) land 31)

let create ?(tick = 0x1p-24) ?(slots_pow2 = 12) () =
  if tick <= 0. then invalid_arg "Timer_wheel.create: tick <= 0";
  if slots_pow2 < 5 || slots_pow2 > 24 then
    invalid_arg "Timer_wheel.create: slots_pow2 outside [5, 24]";
  let num_slots = 1 lsl slots_pow2 in
  let levels =
    let rec build acc size =
      let words = (size + 31) / 32 in
      let acc = Array.make words 0 :: acc in
      if words = 1 then acc else build acc words
    in
    Array.of_list (List.rev (build [] num_slots))
  in
  {
    tick;
    inv_tick = 1. /. tick;
    num_slots;
    mask = num_slots - 1;
    slots = Array.make num_slots Nil;
    tails = Array.make num_slots Nil;
    levels;
    num_levels = Array.length levels;
    base = 0;
    cached_tick = -1;
    wheel_count = 0;
    next_seq = 0;
    overflow = Event_queue.create ();
  }

let size t = t.wheel_count + Event_queue.size t.overflow

let is_empty t = size t = 0

(* Bitmap indices are always a slot index masked to [0, num_slots) (or a
   word index derived from one), so the unsafe accesses below cannot go
   out of bounds; the checks were measurable on the per-event path. *)
let rec set_bit t lvl idx =
  let w = idx lsr 5 and b = idx land 31 in
  let words = Array.unsafe_get t.levels lvl in
  let old = Array.unsafe_get words w in
  Array.unsafe_set words w (old lor (1 lsl b));
  if old = 0 && lvl + 1 < t.num_levels then set_bit t (lvl + 1) w

let rec clear_bit t lvl idx =
  let w = idx lsr 5 and b = idx land 31 in
  let words = Array.unsafe_get t.levels lvl in
  let nw = Array.unsafe_get words w land lnot (1 lsl b) in
  Array.unsafe_set words w nw;
  if nw = 0 && lvl + 1 < t.num_levels then clear_bit t (lvl + 1) w

(* First occupied slot at index >= [from], or -1: climb levels masking off
   bits behind the query point, then descend to the leaf.  Top-level
   functions rather than local closures over [t], which would be
   allocated on every call. *)
let rec down t lvl idx =
  if lvl = 0 then idx
  else
    down t (lvl - 1)
      ((idx lsl 5) lor ntz32 (Array.unsafe_get (Array.unsafe_get t.levels (lvl - 1)) idx))

let rec up t lvl idx =
  if lvl >= t.num_levels then -1
  else
    let w = idx lsr 5 and b = idx land 31 in
    let words = Array.unsafe_get t.levels lvl in
    if w >= Array.length words then -1
    else
      let masked = Array.unsafe_get words w land ((-1) lsl b) in
      if masked <> 0 then down t lvl ((w lsl 5) lor ntz32 masked)
      else up t (lvl + 1) (w + 1)

let next_set t from = up t 0 from

(* Earliest occupied slot in tick order (circular from base), -1 if none. *)
let first_slot t =
  if t.wheel_count = 0 then -1
  else if t.cached_tick >= 0 then t.cached_tick land t.mask
  else begin
    let s_base = t.base land t.mask in
    let s = next_set t s_base in
    let s = if s >= 0 then s else next_set t 0 in
    t.cached_tick <- t.base + ((s - s_base) land t.mask);
    s
  end

(* Scaling by [inv_tick] is monotone in [time], so quantization can
   never invert cross-tick order (and is exact for power-of-two ticks). *)
let tick_of_time t time =
  let k = int_of_float (time *. t.inv_tick) in
  if k < t.base then t.base else k

let push t ~time payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let k = tick_of_time t time in
  if k - t.base >= t.num_slots then
    Event_queue.push t.overflow ~time (Node { time; seq; payload; next = Nil })
  else begin
    let s = k land t.mask in
    let e = { time; seq; payload; next = Nil } in
    let n = Node e in
    (match Array.unsafe_get t.tails s with
    | Nil ->
      t.slots.(s) <- n;
      t.tails.(s) <- n;
      set_bit t 0 s
    | Node tl when tl.time < time || (tl.time = time && tl.seq < seq) ->
      (* Common case: monotone (time, seq) within a slot — append. *)
      tl.next <- n;
      t.tails.(s) <- n
    | Node _ ->
      (* Rare: an earlier float time mapping to the same tick arrived
         later.  Sorted insert keeps the slot list in (time, seq) order. *)
      let before a = a.time < time || (a.time = time && a.seq < seq) in
      let rec ins prev =
        match prev.next with
        | Node nx when before nx -> ins nx
        | rest ->
          e.next <- rest;
          prev.next <- n;
          (match rest with Nil -> t.tails.(s) <- n | Node _ -> ())
      in
      (match t.slots.(s) with
      | Node hd when not (before hd) ->
        e.next <- t.slots.(s);
        t.slots.(s) <- n
      | Node hd -> ins hd
      | Nil -> assert false));
    (* -1 means "unknown", not "none": after a pop empties the head slot
       the true minimum is some other occupied slot, so only a push into
       a verifiably empty wheel may claim the minimum outright. *)
    if t.wheel_count = 0 then t.cached_tick <- k
    else if t.cached_tick >= 0 && k < t.cached_tick then t.cached_tick <- k;
    t.wheel_count <- t.wheel_count + 1
  end

(* Remove the head of slot [s]; returns its node. *)
let pop_wheel t s =
  match Array.unsafe_get t.slots s with
  | Nil -> assert false
  | Node e as n ->
    t.slots.(s) <- e.next;
    (match e.next with
    | Nil ->
      t.tails.(s) <- Nil;
      clear_bit t 0 s;
      t.cached_tick <- -1
    | Node _ -> ());
    t.wheel_count <- t.wheel_count - 1;
    let s_base = t.base land t.mask in
    t.base <- t.base + ((s - s_base) land t.mask);
    n

let pop_overflow t =
  let n = Event_queue.top t.overflow in
  ignore (Event_queue.pop t.overflow);
  (match n with Node o -> t.base <- tick_of_time t o.time | Nil -> ());
  n

(* Whether the next event is the overflow heap's top rather than the head
   of wheel slot [s] ([s < 0]: the wheel is empty), by (time, seq). *)
let overflow_first t s =
  (not (Event_queue.is_empty t.overflow))
  && (s < 0
     ||
     match (Event_queue.top t.overflow, Array.unsafe_get t.slots s) with
     | Node o, Node e -> o.time < e.time || (o.time = e.time && o.seq < e.seq)
     | _ -> assert false)

(* Remove and return the earliest node if its time is [<= horizon], else
   [Nil]: one head lookup decides both "is it due?" and "remove it", where
   a peek-then-pop pair would do the slot descent and overflow comparison
   twice per event. *)
let take t ~horizon =
  let s = first_slot t in
  if overflow_first t s then
    match Event_queue.top t.overflow with
    | Node o when o.time <= horizon -> pop_overflow t
    | _ -> Nil
  else if s < 0 then Nil
  else
    match Array.unsafe_get t.slots s with
    | Node e when e.time <= horizon -> pop_wheel t s
    | _ -> Nil

let pop t =
  match take t ~horizon:infinity with
  | Nil -> None
  | Node e -> Some (e.time, e.payload)

let pop_before t ~horizon f =
  match take t ~horizon with
  | Nil -> false
  | Node e ->
    f e.time e.payload;
    true

let peek_time t =
  let s = first_slot t in
  let n =
    if overflow_first t s then Event_queue.top t.overflow
    else if s < 0 then Nil
    else Array.unsafe_get t.slots s
  in
  match n with Nil -> None | Node e -> Some e.time

let clear t =
  Array.fill t.slots 0 t.num_slots Nil;
  Array.fill t.tails 0 t.num_slots Nil;
  Array.iter (fun words -> Array.fill words 0 (Array.length words) 0) t.levels;
  t.wheel_count <- 0;
  t.cached_tick <- -1;
  Event_queue.clear t.overflow
