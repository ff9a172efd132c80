type t = {
  bucket : float;
  sums : (int, float) Hashtbl.t;
  mutable min_index : int;
  mutable max_index : int;
  mutable total : float;
  mutable any : bool;
}

let create ~bucket () =
  if bucket <= 0. then invalid_arg "Timeseries.create: bucket <= 0";
  {
    bucket;
    sums = Hashtbl.create 64;
    min_index = 0;
    max_index = 0;
    total = 0.;
    any = false;
  }

let add t ~time v =
  if time < 0. then invalid_arg "Timeseries.add: negative time";
  let index = int_of_float (time /. t.bucket) in
  let prev = Option.value (Hashtbl.find_opt t.sums index) ~default:0. in
  Hashtbl.replace t.sums index (prev +. v);
  t.total <- t.total +. v;
  if t.any then begin
    if index < t.min_index then t.min_index <- index;
    if index > t.max_index then t.max_index <- index
  end
  else begin
    t.any <- true;
    t.min_index <- index;
    t.max_index <- index
  end

let buckets t =
  if not t.any then []
  else
    List.init
      (t.max_index - t.min_index + 1)
      (fun offset ->
        let index = t.min_index + offset in
        let sum = Option.value (Hashtbl.find_opt t.sums index) ~default:0. in
        (float_of_int index *. t.bucket, sum))

let rate t = List.map (fun (time, sum) -> (time, sum /. t.bucket)) (buckets t)

let total t = t.total

let pp ?(width = 50) () ppf t =
  match buckets t with
  | [] -> Format.pp_print_string ppf "(empty)"
  | data ->
    let peak = List.fold_left (fun acc (_, v) -> Float.max acc v) 0. data in
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun (time, v) ->
        let bar =
          if peak <= 0. then 0
          else int_of_float (v /. peak *. float_of_int width)
        in
        Format.fprintf ppf "%8.3f | %s %.3g@," time (String.make bar '#') v)
      data;
    Format.fprintf ppf "@]"
