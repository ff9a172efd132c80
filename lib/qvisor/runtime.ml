type t = {
  mutable config : Synthesizer.config;
  mutable tenants : Tenant.t list;
  mutable policy : Policy.t;
  pre : Preprocessor.t;
  guard : Guard.t option;
  mutable resyntheses : int;
  mutable on_redeploy : (unit -> unit) list;
  tel : Engine.Telemetry.t;
  clock : unit -> float;
  resynthesis_count : Engine.Telemetry.Counter.t;
}

let create ?(config = Synthesizer.default_config)
    ?(telemetry = Engine.Telemetry.disabled) ?profiler
    ?(clock = fun () -> 0.) ?guard ~tenants ~policy () =
  match Synthesizer.synthesize ?profiler ~config ~tenants ~policy () with
  | Error e -> Error e
  | Ok plan ->
    Ok
      {
        config;
        tenants;
        policy;
        (* Nothing taps rank errors at compile time; a later
           [Preprocessor.set_on_rank_error] audits every 8th packet. *)
        pre =
          Preprocessor.of_plan ?profiler ~telemetry ~rank_error_sample:8 plan;
        guard =
          Option.map
            (fun config -> Guard.create ~config ~telemetry ~clock ~tenants ())
            guard;
        resyntheses = 0;
        on_redeploy = [];
        tel = telemetry;
        clock;
        resynthesis_count =
          Engine.Telemetry.counter telemetry "runtime.resyntheses";
      }

let create_exn ?config ?telemetry ?profiler ?clock ?guard ~tenants ~policy () =
  match
    create ?config ?telemetry ?profiler ?clock ?guard ~tenants ~policy ()
  with
  | Ok t -> t
  | Error e -> invalid_arg ("Runtime.create: " ^ Error.to_string e)

let process t =
  match t.guard with
  | None -> Preprocessor.process t.pre
  | Some guard -> Guard.process guard t.pre

let verdict t ~tenant_id =
  match t.guard with
  | None -> Guard.Conforming
  | Some guard -> Guard.verdict guard ~tenant_id

let preprocessor t = t.pre

let telemetry t = t.tel

let plan t = Preprocessor.plan t.pre

let resyntheses t = t.resyntheses

let observed_range t ~tenant_id = Preprocessor.observed_range t.pre ~tenant_id

let on_redeploy t f = t.on_redeploy <- t.on_redeploy @ [ f ]

let redeploy t tenants policy =
  match Synthesizer.synthesize ~config:t.config ~tenants ~policy () with
  | Error e -> Error e
  | Ok plan ->
    t.tenants <- tenants;
    t.policy <- policy;
    Preprocessor.swap_plan t.pre plan;
    t.resyntheses <- t.resyntheses + 1;
    Engine.Telemetry.Counter.incr t.resynthesis_count;
    if Engine.Telemetry.tracing t.tel then
      Engine.Telemetry.event t.tel ~time:(t.clock ()) ~kind:"resynthesis"
        ~extra:
          [
            ( "tenants",
              Engine.Json.Number (float_of_int (List.length tenants)) );
            ( "policy",
              Engine.Json.String (Policy.to_string policy) );
          ]
        ();
    Ok ()

(* Subscribers run once the whole operation (guard bookkeeping, window
   reset) is done, so they see the runtime in its final state. *)
let notify t r =
  if Result.is_ok r then List.iter (fun f -> f ()) t.on_redeploy;
  r

let add_tenant t tenant ?policy () =
  if List.exists (fun x -> x.Tenant.id = tenant.Tenant.id) t.tenants then
    Error
      (Error.Config
         (Printf.sprintf "tenant id %d already present" tenant.Tenant.id))
  else begin
    let policy = Option.value policy ~default:t.policy in
    let r = redeploy t (t.tenants @ [ tenant ]) policy in
    if Result.is_ok r then Option.iter (fun g -> Guard.watch g tenant) t.guard;
    notify t r
  end

let remove_tenant t ~tenant_id ?policy () =
  if not (List.exists (fun x -> x.Tenant.id = tenant_id) t.tenants) then
    Error (Error.Unknown_tenant (Printf.sprintf "id %d" tenant_id))
  else begin
    let tenants = List.filter (fun x -> x.Tenant.id <> tenant_id) t.tenants in
    let policy = Option.value policy ~default:t.policy in
    Preprocessor.reset_observed ~tenant_id t.pre;
    let r = redeploy t tenants policy in
    if Result.is_ok r then
      Option.iter (fun g -> Guard.unwatch g ~tenant_id) t.guard;
    notify t r
  end

let tenants t = t.tenants

let policy t = t.policy

let update_policy t policy = notify t (redeploy t t.tenants policy)

let config t = t.config

let coarsen t ~levels =
  if levels < 2 then
    Error (Error.Config (Printf.sprintf "coarsen: levels %d < 2" levels))
  else begin
    let old = t.config in
    t.config <- { t.config with Synthesizer.levels = Some levels };
    match redeploy t t.tenants t.policy with
    | Ok () -> notify t (Ok ())
    | Error _ as e ->
      t.config <- old;
      e
  end

let refresh t =
  let tenants =
    List.map
      (fun tenant ->
        match observed_range t ~tenant_id:tenant.Tenant.id with
        | Some (lo, hi) -> { tenant with Tenant.rank_lo = lo; rank_hi = hi }
        | None -> tenant)
      t.tenants
  in
  match redeploy t tenants t.policy with
  | Error _ as e -> e
  | Ok () ->
    Preprocessor.reset_observed t.pre;
    notify t (Ok ())
