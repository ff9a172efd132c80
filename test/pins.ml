(* Shared by the bit-for-bit and allocation pins of the instrumentation
   hot path (Stats, P2_quantile, Telemetry.Histogram, Net's counters). *)

(* A seeded stream mixing small integers (queue depths), heavy-tailed and
   exponential values (sojourn times) and negatives. *)
let stream n =
  let r = Engine.Rng.create ~seed:2024 in
  Array.init n (fun i ->
      match i mod 5 with
      | 0 -> float_of_int (Engine.Rng.int_range r ~lo:0 ~hi:64)
      | 1 -> Engine.Rng.pareto r ~shape:1.5 ~scale:1e-5
      | 2 -> -.Engine.Rng.float r
      | _ -> Engine.Rng.exponential r ~mean:2.5e-5)

(* Compare every (name, value) to the IEEE-754 bits recorded for it. *)
let check_bits ~expected actual =
  Alcotest.(check (list string))
    "same names" (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (name, bits) (_, v) ->
      Alcotest.(check string)
        name
        (Printf.sprintf "%016Lx" bits)
        (Printf.sprintf "%016Lx" (Int64.bits_of_float v)))
    expected actual

(* Minor-heap words one call of [f] allocates, averaged over 10k calls
   after 100 warm-up calls (which cover P²'s initial sort). *)
let words_per_call f =
  for _ = 1 to 100 do
    f ()
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n
