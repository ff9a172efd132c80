open Cmdliner

let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some _ | None ->
      Error
        (`Msg
          (Printf.sprintf "expected a strictly positive integer, got '%s'" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0. -> Ok v
    | Some _ | None ->
      Error
        (`Msg
          (Printf.sprintf "expected a strictly positive number, got '%s'" s))
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

let probability =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0. && v <= 1. -> Ok v
    | Some _ | None ->
      Error
        (`Msg (Printf.sprintf "expected a probability within [0,1], got '%s'" s))
  in
  Arg.conv ~docv:"P" (parse, Format.pp_print_float)

let fault =
  let parse s = Result.map_error (fun e -> `Msg e) (Conformance.Fault.of_string s) in
  let print ppf f = Format.pp_print_string ppf (Conformance.Fault.to_string f) in
  Arg.conv (parse, print)

let duration_of_string s =
  let scaled num unit_ =
    match float_of_string_opt num with
    | Some v when Float.is_finite v && v > 0. -> Some (v *. unit_)
    | Some _ | None -> None
  in
  let n = String.length s in
  let v =
    if n >= 2 && String.sub s (n - 2) 2 = "ms" then
      scaled (String.sub s 0 (n - 2)) 1e-3
    else if n >= 1 && s.[n - 1] = 's' then
      scaled (String.sub s 0 (n - 1)) 1.
    else if n >= 1 && s.[n - 1] = 'm' then
      scaled (String.sub s 0 (n - 1)) 60.
    else scaled s 1.
  in
  match v with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf
         "expected a strictly positive duration ('500ms', '2s', '1m' or bare \
          seconds), got '%s'"
         s)

let pp_duration ppf seconds =
  if seconds < 1. && Float.is_integer (seconds *. 1000.) then
    Format.fprintf ppf "%.0fms" (seconds *. 1000.)
  else if Float.is_integer (seconds /. 60.) && seconds >= 60. then
    Format.fprintf ppf "%.0fm" (seconds /. 60.)
  else Format.fprintf ppf "%gs" seconds

let duration =
  let parse s = Result.map_error (fun m -> `Msg m) (duration_of_string s) in
  Arg.conv ~docv:"DURATION" (parse, pp_duration)

(* ------------------------------------------------------------------ *)
(* Shared flags and trace files                                       *)
(* ------------------------------------------------------------------ *)

let jobs_arg ~doc =
  Arg.(
    value
    & opt int (Engine.Parallel.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let trace_sample_arg ~doc =
  Arg.(value & opt probability 1.0 & info [ "trace-sample" ] ~docv:"RATE" ~doc)

let open_out_or_exit ~what path =
  try open_out path
  with Sys_error e ->
    Format.eprintf "cannot write %s: %s@." what e;
    exit 1

let open_sink ~what =
  Option.map (fun path -> (path, open_out_or_exit ~what path))

let attach_trace tel ~sample ?seed trace =
  let sink = open_sink ~what:"trace" trace in
  Option.iter (fun (_, oc) -> Engine.Telemetry.attach_sink tel ~sample ?seed oc) sink;
  sink

let close_sink =
  Option.iter (fun (path, oc) ->
      close_out oc;
      Format.eprintf "wrote %s@." path)

let write_atomic_or_exit ~what path text =
  try Engine.Perf.write_atomic path (fun oc -> output_string oc text)
  with Sys_error e ->
    Format.eprintf "cannot write %s: %s@." what e;
    exit 1

let attach_shard tel ~sample ~seed trace =
  Option.map
    (fun _ ->
      let path, oc = Filename.open_temp_file "qvisor-trace" ".ndjson" in
      Engine.Telemetry.attach_sink tel ~sample ~seed oc;
      (path, oc))
    trace

let merge_shard tel ~into =
  Option.iter (fun (path, oc) ->
      Engine.Telemetry.detach_sink tel;
      close_out oc;
      Option.iter
        (fun (_, final) ->
          output_string final (In_channel.with_open_bin path In_channel.input_all))
        into;
      Sys.remove path)

(* ------------------------------------------------------------------ *)
(* Span profile                                                       *)
(* ------------------------------------------------------------------ *)

let profile_arg =
  let doc =
    "Write a span profile of the run to $(docv) as Chrome trace-event JSON \
     (load in Perfetto or chrome://tracing); a sorted self/total-time table \
     is printed to stderr.  The profiled span structure is identical for \
     any --jobs value."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let make_profiler = function
  | Some _ -> Engine.Span.create ()
  | None -> Engine.Span.disabled

let write_profile profile profiler =
  match profile with
  | None -> ()
  | Some path ->
    (try
       Out_channel.with_open_text path (fun oc ->
           Engine.Span.write_chrome profiler oc)
     with Sys_error e ->
       Format.eprintf "cannot write profile: %s@." e;
       exit 1);
    Format.eprintf "%a@." Engine.Span.pp_table profiler;
    Format.eprintf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Graceful shutdown                                                  *)
(* ------------------------------------------------------------------ *)

let default_signals = [ Sys.sigint; Sys.sigterm ]

let on_signal ?(signals = default_signals) f =
  List.iter
    (fun signo ->
      (* Some signals cannot be trapped on some platforms; a CLI that
         merely loses graceful shutdown should still start. *)
      try ignore (Sys.signal signo (Sys.Signal_handle f))
      with Sys_error _ | Invalid_argument _ -> ())
    signals

let cleanups : (unit -> unit) list ref = ref []

let at_signal_exit f = cleanups := f :: !cleanups

let run_cleanups () =
  let fs = !cleanups in
  cleanups := [];
  List.iter (fun f -> try f () with _ -> ()) fs

let exit_on_signal ?signals () =
  on_signal ?signals (fun signo ->
      run_cleanups ();
      (* [Stdlib.exit], not [Unix._exit]: at_exit handlers run, so open
         channels (NDJSON sinks, --metrics-out files) flush instead of
         truncating their last record mid-line. *)
      Stdlib.exit (128 + signo))
