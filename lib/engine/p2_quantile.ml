(* P² keeps five markers: minimum, the q/2, q and (1+q)/2 quantile
   estimates, and maximum.  Marker heights are adjusted with a piecewise
   parabolic (hence "P squared") interpolation as observations stream in. *)

type t = {
  q : float;
  heights : float array; (* marker heights, 5 *)
  positions : float array; (* actual marker positions, 5 *)
  desired : float array; (* desired marker positions, 5 *)
  increments : float array; (* desired position increments, 5 *)
  mutable n : int;
}

let create ~q =
  if q <= 0. || q >= 1. then invalid_arg "P2_quantile.create: q outside (0,1)";
  {
    q;
    heights = Array.make 5 0.;
    positions = [| 1.; 2.; 3.; 4.; 5. |];
    desired = [| 1.; 1. +. (2. *. q); 1. +. (4. *. q); 3. +. (2. *. q); 5. |];
    increments = [| 0.; q /. 2.; q; (1. +. q) /. 2.; 1. |];
    n = 0;
  }

let count t = t.n

(* [parabolic] and [linear] are inlined into [add] so their float
   results stay unboxed, and the cell search is a loop rather than a
   closure over [x]: one [add] allocates nothing. *)
let[@inline] parabolic t i d =
  let h = t.heights and p = t.positions in
  h.(i)
  +. d
     /. (p.(i + 1) -. p.(i - 1))
     *. (((p.(i) -. p.(i - 1) +. d) *. (h.(i + 1) -. h.(i)) /. (p.(i + 1) -. p.(i)))
        +. ((p.(i + 1) -. p.(i) -. d) *. (h.(i) -. h.(i - 1)) /. (p.(i) -. p.(i - 1))))

let[@inline] linear t i d =
  let h = t.heights and p = t.positions in
  h.(i) +. (d *. (h.(i + int_of_float d) -. h.(i)) /. (p.(i + int_of_float d) -. p.(i)))

let add t x =
  t.n <- t.n + 1;
  if t.n <= 5 then begin
    t.heights.(t.n - 1) <- x;
    if t.n = 5 then Array.sort Float.compare t.heights
  end
  else begin
    (* Find cell k such that heights.(k) <= x < heights.(k+1), clamping
       extremes. *)
    let k =
      if x < t.heights.(0) then begin
        t.heights.(0) <- x;
        0
      end
      else if x >= t.heights.(4) then begin
        t.heights.(4) <- x;
        3
      end
      else begin
        let k = ref 0 in
        while not (x < t.heights.(!k + 1)) do
          incr k
        done;
        !k
      end
    in
    for i = k + 1 to 4 do
      t.positions.(i) <- t.positions.(i) +. 1.
    done;
    for i = 0 to 4 do
      t.desired.(i) <- t.desired.(i) +. t.increments.(i)
    done;
    (* Adjust the three interior markers if needed. *)
    for i = 1 to 3 do
      let d = t.desired.(i) -. t.positions.(i) in
      if
        (d >= 1. && t.positions.(i + 1) -. t.positions.(i) > 1.)
        || (d <= -1. && t.positions.(i - 1) -. t.positions.(i) < -1.)
      then begin
        let d = if d >= 0. then 1. else -1. in
        let candidate = parabolic t i d in
        let h =
          if t.heights.(i - 1) < candidate && candidate < t.heights.(i + 1)
          then candidate
          else linear t i d
        in
        t.heights.(i) <- h;
        t.positions.(i) <- t.positions.(i) +. d
      end
    done
  end

let merge_into ~into src =
  if into.q <> src.q then invalid_arg "P2_quantile.merge_into: quantiles differ";
  if src.n = 0 then ()
  else if src.n <= 5 then
    (* Below five observations the heights are the raw samples. *)
    for i = 0 to src.n - 1 do
      add into src.heights.(i)
    done
  else begin
    (* Replay the five marker heights, each with the multiplicity implied
       by the gap between adjacent marker positions.  This is approximate
       (the sketch cannot be merged exactly) but deterministic: the same
       source state always replays the same stream. *)
    let round p = int_of_float (Float.round p) in
    let prev = ref 0 in
    for i = 0 to 4 do
      let upto = round src.positions.(i) in
      for _ = !prev + 1 to upto do
        add into src.heights.(i)
      done;
      prev := max !prev upto
    done
  end

let estimate t =
  if t.n = 0 then nan
  else if t.n >= 5 then t.heights.(2)
  else begin
    let a = Array.sub t.heights 0 t.n in
    Array.sort Float.compare a;
    let pos = t.q *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then a.(lo)
    else begin
      let w = pos -. float_of_int lo in
      (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)
    end
  end
