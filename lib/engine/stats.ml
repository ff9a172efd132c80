(* The five running moments live unboxed in one float array: a mutable
   float field of a record that also holds [n] and [samples] is stored
   boxed, so every [add] would allocate one box per moment written. *)
type t = {
  mutable n : int;
  m : float array; (* mean, m2 (Welford), min, max, sum *)
  samples : float Vec.t option;
}

let i_mean = 0

let i_m2 = 1 (* sum of squared deviations, Welford *)

let i_min = 2

let i_max = 3

let i_sum = 4

let create ?(keep_samples = true) () =
  {
    n = 0;
    m = [| 0.; 0.; nan; nan; 0. |];
    samples = (if keep_samples then Some (Vec.create ()) else None);
  }

let add t x =
  let m = t.m in
  t.n <- t.n + 1;
  let delta = x -. m.(i_mean) in
  m.(i_mean) <- m.(i_mean) +. (delta /. float_of_int t.n);
  m.(i_m2) <- m.(i_m2) +. (delta *. (x -. m.(i_mean)));
  m.(i_sum) <- m.(i_sum) +. x;
  if t.n = 1 then begin
    m.(i_min) <- x;
    m.(i_max) <- x
  end
  else begin
    if x < m.(i_min) then m.(i_min) <- x;
    if x > m.(i_max) then m.(i_max) <- x
  end;
  match t.samples with None -> () | Some d -> Vec.add_last d x

let count t = t.n

let mean t = if t.n = 0 then nan else t.m.(i_mean)

let variance t = if t.n < 2 then nan else t.m.(i_m2) /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t = t.m.(i_min)

let max t = t.m.(i_max)

let sum t = t.m.(i_sum)

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  match t.samples with
  | None -> invalid_arg "Stats.quantile: samples not kept"
  | Some d ->
    let n = Vec.length d in
    if n = 0 then nan
    else begin
      let a = Vec.to_array d in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = int_of_float (Float.ceil pos) in
      if lo = hi then a.(lo)
      else begin
        let w = pos -. float_of_int lo in
        (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)
      end
    end

let merge_into ~into:t src =
  match src.samples with
  | Some d -> Vec.iter (fun x -> add t x) d
  | None ->
    (* Without samples we can only merge moments. *)
    if src.n > 0 then begin
      let m = t.m and s = src.m in
      let n0 = t.n in
      let n1 = src.n in
      let n = n0 + n1 in
      let delta = s.(i_mean) -. m.(i_mean) in
      let mean =
        ((m.(i_mean) *. float_of_int n0) +. (s.(i_mean) *. float_of_int n1))
        /. float_of_int n
      in
      let m2 =
        m.(i_m2) +. s.(i_m2)
        +. (delta *. delta *. float_of_int n0 *. float_of_int n1
           /. float_of_int n)
      in
      t.n <- n;
      m.(i_mean) <- mean;
      m.(i_m2) <- m2;
      m.(i_sum) <- m.(i_sum) +. s.(i_sum);
      m.(i_min) <-
        (if Float.is_nan m.(i_min) then s.(i_min)
         else Float.min m.(i_min) s.(i_min));
      m.(i_max) <-
        (if Float.is_nan m.(i_max) then s.(i_max)
         else Float.max m.(i_max) s.(i_max))
    end

let merge a b =
  let keep = Option.is_some a.samples && Option.is_some b.samples in
  let t = create ~keep_samples:keep () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else if Option.is_some t.samples then
    Format.fprintf ppf "n=%d mean=%.6g p50=%.6g p99=%.6g max=%.6g" t.n (mean t)
      (quantile t 0.5) (quantile t 0.99) (max t)
  else
    Format.fprintf ppf "n=%d mean=%.6g min=%.6g max=%.6g" t.n (mean t) (min t)
      (max t)
