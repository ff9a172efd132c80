(** What the qvisor executables share: [Cmdliner] converters and flags,
    output-file handling, the span profile, and graceful shutdown.

    Flags that denote counts, intervals or thresholds must be strictly
    positive; these converters reject 0, negative and non-finite values
    at parse time with a clear message (rather than silently accepting a
    value the tool would misbehave on), e.g.:

    {v qvisor-experiments: option '--metrics-interval': expected a
       strictly positive number, got '0' v} *)

val pos_int : int Cmdliner.Arg.conv
(** A strictly positive integer ([>= 1]). *)

val pos_float : float Cmdliner.Arg.conv
(** A strictly positive, finite number ([> 0]). *)

val probability : float Cmdliner.Arg.conv
(** A number within [\[0, 1\]] (the [--trace-sample] rate). *)

val fault : Conformance.Fault.t Cmdliner.Arg.conv
(** An injectable scheduler fault ({!Conformance.Fault.of_string}). *)

val duration : float Cmdliner.Arg.conv
(** A strictly positive duration in seconds, accepting the suffixes
    [ms], [s] and [m] — ["500ms"], ["2s"], ["1.5m"] — or a bare number
    of seconds for backward compatibility.  Used by
    [--metrics-interval], [--remediation-cooldown] and
    [--drain-timeout]. *)

val duration_of_string : string -> (float, string) result
(** The parsing half of {!duration}, usable outside [Cmdliner]. *)

(** {1 Shared flags and trace files} *)

val jobs_arg : doc:string -> int Cmdliner.Term.t
(** [--jobs]/[-j N], default {!Engine.Parallel.default_jobs}. *)

val trace_sample_arg : doc:string -> float Cmdliner.Term.t
(** [--trace-sample RATE]: a {!probability}, default [1.0]. *)

val open_out_or_exit : what:string -> string -> out_channel
(** Create an output file, or print [cannot write <what>: <reason>] and
    exit 1. *)

val open_sink : what:string -> string option -> (string * out_channel) option
(** {!open_out_or_exit} for an optional path, keeping the path. *)

val attach_trace :
  Engine.Telemetry.t ->
  sample:float ->
  ?seed:int ->
  string option ->
  (string * out_channel) option
(** Open the [--trace] file (when given) and attach it as the registry's
    sink ({!Engine.Telemetry.attach_sink}). *)

val close_sink : (string * out_channel) option -> unit
(** Close it and report [wrote <path>] on stderr. *)

val write_atomic_or_exit : what:string -> string -> string -> unit
(** [write_atomic_or_exit ~what path text]: {!Engine.Perf.write_atomic}
    (a reader never sees a truncated file), else exit as above. *)

(** Parallel runs trace each worker into a temporary shard, appended to
    the merged trace in job order, so the file does not depend on the
    worker count. *)

val attach_shard :
  Engine.Telemetry.t -> sample:float -> seed:int -> string option ->
  (string * out_channel) option

val merge_shard :
  Engine.Telemetry.t -> into:(string * out_channel) option ->
  (string * out_channel) option -> unit

(** {1 Span profile} *)

val profile_arg : string option Cmdliner.Term.t
(** [--profile FILE]: write a Chrome trace-event span profile. *)

val make_profiler : string option -> Engine.Span.t
(** A live profiler with [--profile], else {!Engine.Span.disabled}. *)

val write_profile : string option -> Engine.Span.t -> unit
(** Write the profile to the [--profile] path (exit 1 when it cannot be
    written) and print the self/total-time table to stderr; a no-op
    without [--profile]. *)

(** {1 Graceful shutdown}

    One-shot CLIs die mid-write when interrupted: a [SIGINT] during
    [experiments single --alerts] can truncate the final NDJSON record.
    These helpers install handlers that run registered cleanups and then
    exit through [Stdlib.exit], so [at_exit]-registered channel flushes
    still happen. *)

val on_signal : ?signals:int list -> (int -> unit) -> unit
(** Install [f] as the handler for each signal (default
    [[Sys.sigint; Sys.sigterm]]).  Signals that cannot be trapped on the
    platform are skipped silently. *)

val at_signal_exit : (unit -> unit) -> unit
(** Register a cleanup (flush a sink, finalize a metrics file) to run —
    LIFO, exceptions swallowed — when {!exit_on_signal}'s handler
    fires. *)

val exit_on_signal : ?signals:int list -> unit -> unit
(** Install a terminating handler: on delivery it runs every
    {!at_signal_exit} cleanup and calls [Stdlib.exit (128 + signo)]
    (the conventional fatal-signal exit status), which also runs
    [at_exit] handlers and flushes open channels. *)
