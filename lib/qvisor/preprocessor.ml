type instruments = {
  table_hits : Engine.Telemetry.Counter.t;
  fallback_hits : Engine.Telemetry.Counter.t;
  rank_error : Engine.Telemetry.Histogram.t;
}

type t = {
  mutable table : Transform.t array; (* dense, indexed by tenant id *)
  mutable fallback : Transform.t;
  mutable current : Synthesizer.plan;
  (* Tenant ids are small and dense, so per-tenant packet counts live in a
     growable array — a hash lookup per packet was measurable in profiles.
     Negative (unknown) ids are rare and fall back to the side table. *)
  mutable counts : int array;
  (* Smallest / largest raw label per tenant since the last reset, in
     arrays grown with [counts]; [lo > hi] means nothing seen. *)
  mutable lo : int array;
  mutable hi : int array;
  neg_counts : (int, int ref) Hashtbl.t;
  mutable processed : int;
  ins : instruments option;
  mutable on_rank_error : (int -> float -> unit) option;
  (* Without telemetry the exact-error recomputation exists only to feed
     [on_rank_error]; auditing every [rank_error_sample]-th packet keeps
     that float work off the hot path (plan distortion is systematic, so
     a sampled maximum converges on the true one almost immediately). *)
  rank_error_sample : int;
}

let table_of_plan (plan : Synthesizer.plan) =
  let max_id =
    List.fold_left
      (fun acc a -> max acc a.Synthesizer.tenant.Tenant.id)
      (-1) plan.Synthesizer.assignments
  in
  let table = Array.make (max_id + 1) plan.Synthesizer.fallback in
  List.iter
    (fun a -> table.(a.Synthesizer.tenant.Tenant.id) <- a.Synthesizer.transform)
    plan.Synthesizer.assignments;
  table

let of_plan ?(profiler = Engine.Span.disabled) ?telemetry
    ?(rank_error_sample = 1) plan =
  if rank_error_sample <= 0 then
    invalid_arg "Preprocessor.of_plan: rank_error_sample <= 0";
  Engine.Span.with_ profiler ~name:"preprocessor.compile" @@ fun () ->
  let ins =
    match telemetry with
    | Some tel when Engine.Telemetry.is_enabled tel ->
      Some
        {
          table_hits = Engine.Telemetry.counter tel "preprocessor.table_hits";
          fallback_hits =
            Engine.Telemetry.counter tel "preprocessor.fallback_hits";
          rank_error =
            Engine.Telemetry.histogram tel "preprocessor.rank_error";
        }
    | Some _ | None -> None
  in
  {
    table = table_of_plan plan;
    fallback = plan.Synthesizer.fallback;
    current = plan;
    counts = Array.make 16 0;
    lo = Array.make 16 max_int;
    hi = Array.make 16 min_int;
    neg_counts = Hashtbl.create 4;
    processed = 0;
    ins;
    on_rank_error = None;
    rank_error_sample;
  }

let transform_for t ~tenant_id =
  if tenant_id >= 0 && tenant_id < Array.length t.table then
    t.table.(tenant_id)
  else t.fallback

let process_conditioned t ~conditioning (p : Sched.Packet.t) =
  let id = p.Sched.Packet.tenant in
  let label = p.Sched.Packet.label in
  (* Always recomputed from the immutable tenant label, so running the
     pre-processor at every QVISOR hop is idempotent. *)
  let conditioned = Transform.apply conditioning label in
  let transform = transform_for t ~tenant_id:id in
  p.Sched.Packet.rank <- Transform.apply transform conditioned;
  (match t.ins with
  | Some ins ->
    (* Telemetry histograms are exact: every packet is observed.  [err]
       arrives boxed from [rank_error], so both consumers share one box. *)
    let err = Transform.rank_error transform conditioned in
    let in_table = id >= 0 && id < Array.length t.table in
    Engine.Telemetry.Counter.incr
      (if in_table then ins.table_hits else ins.fallback_hits);
    Engine.Telemetry.Histogram.observe ins.rank_error err;
    (match t.on_rank_error with None -> () | Some f -> f id err)
  | None -> (
    match t.on_rank_error with
    | Some f when t.processed mod t.rank_error_sample = 0 ->
      f id (Transform.rank_error transform conditioned)
    | Some _ | None -> ()));
  t.processed <- t.processed + 1;
  if id < 0 then (
    match Hashtbl.find_opt t.neg_counts id with
    | Some r -> incr r
    | None -> Hashtbl.add t.neg_counts id (ref 1))
  else begin
    let n = Array.length t.counts in
    if id >= n then begin
      let grow a fill =
        let bigger = Array.make (max (2 * n) (id + 1)) fill in
        Array.blit a 0 bigger 0 n;
        bigger
      in
      t.counts <- grow t.counts 0;
      t.lo <- grow t.lo max_int;
      t.hi <- grow t.hi min_int
    end;
    t.counts.(id) <- t.counts.(id) + 1;
    if label < t.lo.(id) then t.lo.(id) <- label;
    if label > t.hi.(id) then t.hi.(id) <- label
  end

let process t p = process_conditioned t ~conditioning:Transform.Identity p

let processed t = t.processed

let per_tenant t =
  let acc = Hashtbl.fold (fun id r acc -> (id, !r) :: acc) t.neg_counts [] in
  let acc = ref acc in
  for id = Array.length t.counts - 1 downto 0 do
    if t.counts.(id) > 0 then acc := (id, t.counts.(id)) :: !acc
  done;
  List.sort compare !acc

let observed_range t ~tenant_id =
  if tenant_id >= 0 && tenant_id < Array.length t.lo
     && t.lo.(tenant_id) <= t.hi.(tenant_id)
  then Some (t.lo.(tenant_id), t.hi.(tenant_id))
  else None

let reset_observed ?tenant_id t =
  let reset id =
    t.lo.(id) <- max_int;
    t.hi.(id) <- min_int
  in
  match tenant_id with
  | None -> Array.iteri (fun id _ -> reset id) t.lo
  | Some id -> if id >= 0 && id < Array.length t.lo then reset id

let set_on_rank_error t f = t.on_rank_error <- Some f

let plan t = t.current

let swap_plan t plan =
  t.table <- table_of_plan plan;
  t.fallback <- plan.Synthesizer.fallback;
  t.current <- plan
