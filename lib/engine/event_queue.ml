(* Array-backed binary min-heap ordered by (time, sequence number).  The
   sequence number makes equal-time pops FIFO and the whole simulation
   deterministic. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let size t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let push t ~time payload =
  let e = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    let ncap = max 16 (2 * Array.length t.heap) in
    let a = Array.make ncap e in
    Array.blit t.heap 0 a 0 t.size;
    t.heap <- a
  end;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before t.heap.(l) t.heap.(!smallest) then
          smallest := l;
        if r < t.size && before t.heap.(r) t.heap.(!smallest) then
          smallest := r;
        if !smallest <> !i then begin
          let tmp = t.heap.(!smallest) in
          t.heap.(!smallest) <- t.heap.(!i);
          t.heap.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.time, top.payload)
  end

let peek_time t = if t.size = 0 then None else Some t.heap.(0).time

let top t =
  if t.size = 0 then invalid_arg "Event_queue.top: empty queue";
  t.heap.(0).payload

let clear t =
  t.size <- 0;
  t.heap <- [||]
