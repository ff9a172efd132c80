(** The assembled Fig. 1 box: synthesizer, pre-processor, runtime monitor
    and (optionally) the adversarial-workload guard.

    An event-driven controller in the spirit of the paper's SDN analogy
    (Idea 2, online flavour): it observes the raw ranks each tenant
    actually emits (the min/max label per tenant, kept by the
    pre-processor), supports tenants joining and leaving at runtime, and
    re-synthesizes + hot-swaps the pre-processor's plan when the
    population or the observed ranges change.  Every deployment — the
    Fig. 4 harness, the churn ablation, the [qvisor serve] daemon —
    builds its pre-processor here. *)

type t

val create :
  ?config:Synthesizer.config ->
  ?telemetry:Engine.Telemetry.t ->
  ?profiler:Engine.Span.t ->
  ?clock:(unit -> float) ->
  ?guard:Guard.config ->
  tenants:Tenant.t list ->
  policy:Policy.t ->
  unit ->
  (t, Error.t) result
(** Build the controller, synthesize the initial plan, and compile the
    pre-processor.  Fails with the initial synthesis error when there is
    one.

    [telemetry] (default: off) is threaded to the pre-processor and the
    guard, and counts every successful re-synthesis under
    [runtime.resyntheses]; when the registry carries a trace sink, each
    re-synthesis is offered as a ["resynthesis"] event stamped with
    [clock ()] (default [0.] — pass [fun () -> Engine.Sim.now sim] inside
    a simulation; the guard stamps its events with it too).  [profiler]
    (default: off) records the initial ["synthesizer.synthesize"] and
    ["preprocessor.compile"] spans.  [guard] arms the adversarial-workload
    {!Guard} with that configuration (default: unguarded). *)

val create_exn :
  ?config:Synthesizer.config ->
  ?telemetry:Engine.Telemetry.t ->
  ?profiler:Engine.Span.t ->
  ?clock:(unit -> float) ->
  ?guard:Guard.config ->
  tenants:Tenant.t list ->
  policy:Policy.t ->
  unit ->
  t
(** @raise Invalid_argument if the initial synthesis fails. *)

val process : t -> Sched.Packet.t -> unit
(** The line-rate path: {!Preprocessor.process}, or {!Guard.process} when
    the guard is armed (both record the raw label's observed range).
    [process t] picks the path once, so install it partially applied as
    the fabric's [preprocess] hook. *)

val verdict : t -> tenant_id:int -> Guard.verdict
(** The guard's verdict; [Conforming] when the guard is not armed. *)

val preprocessor : t -> Preprocessor.t

val telemetry : t -> Engine.Telemetry.t
(** The registry given to {!create}. *)

val plan : t -> Synthesizer.plan

val resyntheses : t -> int
(** Number of plan recomputations so far (initial synthesis excluded). *)

val observed_range : t -> tenant_id:int -> (int * int) option
(** Smallest and largest raw rank seen from a tenant since the last
    [refresh] (or since it was removed) — [None] before any packet. *)

val on_redeploy : t -> (unit -> unit) -> unit
(** Subscribe to plan and population changes: the callback runs after
    every successful {!add_tenant}, {!remove_tenant}, {!update_policy},
    {!coarsen} and {!refresh}, once the new plan serves.  Subscribers run
    in subscription order. *)

val add_tenant :
  t -> Tenant.t -> ?policy:Policy.t -> unit -> (unit, Error.t) result
(** A tenant joins (the paper's t1 moment in Fig. 2).  A new policy
    covering the extended population must be supplied via [?policy] unless
    the current one already names the tenant.  On success the plan is
    re-synthesized and swapped in, and the guard (when armed) starts
    watching the newcomer. *)

val remove_tenant :
  t -> tenant_id:int -> ?policy:Policy.t -> unit -> (unit, Error.t) result
(** A tenant leaves.  [?policy] replaces the operator policy when the
    current one would still name the departed tenant (which it normally
    does).  The tenant's observed range is dropped, and on success the
    guard forgets it. *)

val tenants : t -> Tenant.t list
(** The currently-deployed tenant population, in deployment order. *)

val policy : t -> Policy.t
(** The currently-deployed operator policy. *)

val update_policy : t -> Policy.t -> (unit, Error.t) result
(** Re-synthesize under a new operator policy for the unchanged tenant
    population and atomically swap the plan in.  On failure the old plan
    keeps serving — the daemon's admission pipeline leans on this. *)

val config : t -> Synthesizer.config
(** The synthesizer configuration future redeploys will use. *)

val coarsen : t -> levels:int -> (unit, Error.t) result
(** Remediation fallback: lower the quantization resolution to [levels]
    and re-synthesize.  Atomic like every redeploy — on failure both the
    plan {e and} the previous configuration are kept.
    Fails with [Config] when [levels < 2]. *)

val refresh : t -> (unit, Error.t) result
(** Re-synthesize using the {e observed} rank ranges instead of the
    declared ones (tenants that emitted nothing keep their declaration),
    then reset the observation window.  This is the paper's "compute
    transformation functions … based on the distribution of the latest
    packets". *)
