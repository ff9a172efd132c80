(* A fixed reference loop that measures the host's current speed.

   The loop keeps a 4096-entry binary heap of (time, id) pairs in two
   preallocated arrays and a 4096-counter table, popping the earliest
   entry and pushing a successor, the shape of a discrete-event loop.  It
   fits in cache and allocates nothing, so it follows the core's speed
   and nothing of the program's heap. *)

let size = 4096

let keys = Array.make size 0.

let ids = Array.make size 0

let counts = Array.make size 0

(* The key to push travels through [next.(0)]: a float argument would be
   boxed on every call. *)
let next = [| 0. |]

let push n id =
  let t = next.(0) in
  let i = ref n in
  while !i > 0 && keys.((!i - 1) / 2) > t do
    let p = (!i - 1) / 2 in
    keys.(!i) <- keys.(p);
    ids.(!i) <- ids.(p);
    i := p
  done;
  keys.(!i) <- t;
  ids.(!i) <- id

(* Remove the root of a heap of [n] entries (so [n - 1] remain). *)
let pop n =
  let last = n - 1 in
  let t = keys.(last) and id = ids.(last) in
  let i = ref 0 and go = ref true in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= last then go := false
    else begin
      let c = if l + 1 < last && keys.(l + 1) < keys.(l) then l + 1 else l in
      if keys.(c) < t then begin
        keys.(!i) <- keys.(c);
        ids.(!i) <- ids.(c);
        i := c
      end
      else go := false
    end
  done;
  keys.(!i) <- t;
  ids.(!i) <- id


(* The loop's speed on an unloaded 2.1 GHz x86-64 core, the speed host
   times are rescaled to. *)
let reference_ns = 150.

(* Nanoseconds per operation of the loop, now, over [ops] operations
   (300,000 take about 50 ms). *)
let ns_per_op ?(ops = 300_000) () =
  let rand = ref 12345 in
  for i = 0 to size - 2 do
    rand := (!rand * 1103515245) + 12345;
    next.(0) <- float_of_int ((!rand lsr 16) land 0xFFFF);
    push i i
  done;
  Array.fill counts 0 size 0;
  let t0 = Monotonic_clock.now () in
  for k = 1 to ops do
    let t = keys.(0) and id = ids.(0) in
    pop (size - 1);
    counts.(id land (size - 1)) <- counts.(id land (size - 1)) + 1;
    rand := (!rand * 1103515245) + 12345;
    next.(0) <- t +. float_of_int ((!rand lsr 16) land 0xFFFF);
    push (size - 2) ((id * 31) + k)
  done;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float_of_int ops
