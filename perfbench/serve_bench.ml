(* serve-churn: the `qvisor-cli serve` daemon, unpaced, with its two
   default tenants, driven by one single-threaded open-loop client.

   The client draws two schedules from the seed: Poisson control
   requests cycling tenant-add -> policy-update -> tenant-remove ->
   status (each cycle returns the population to its base set), and
   periodic scrapes alternating GET /metrics and GET /query.  Control
   requests are pipelined on one Unix-socket connection; scrapes go over
   at most one HTTP connection at a time, so a scrape due while the
   previous one is still open is sent late.  Every latency is timed from
   the request's due time, so the wait a stall imposes on later requests
   counts.

   Every reply is decoded with [Daemon.Proto.parse_outcome]; a
   successful mutation must bump the epoch by exactly one and a status
   must report the expected epoch and population.  Every /metrics body
   must pass [Engine.Exposition.parse] and list exactly the tenants
   admitted at some point while the scrape was in flight; every /query
   body must parse as JSON.  A request that fails a check, gets an error
   reply or times out counts as failed and enters every percentile as
   an infinite latency.

   The rates and counts below are tied to the 25 s window BENCHMARK.json
   gives a run; README.md gives the measurements behind them. *)

module P = Daemon.Proto

(* 1,000 control requests per 25 s window, so the p90 rests on 100
   samples above it (and a p99 would have the 1,000 samples a tail needs). *)
let ctl_rate = 40.

(* The highest rate at which the one HTTP connection is nearly always
   free when the next scrape is due: a scrape takes two loop iterations,
   150-220 ms at p90 as measured, and the 333 ms period less its 83 ms
   jitter leaves 250 ms.  At 4/s scrapes queued behind each other and
   their spread across seeds grew from about 0.12 to 0.18.  75 scrapes
   per 25 s window leave 7 samples above the p90. *)
let scrape_rate = 3.

let timeout = 5. (* seconds a request may stay unanswered *)

(* Seconds of active time between host-speed samples: 50 per window,
   each pausing the daemon for about 10 ms. *)
let calib_period = 0.5

(* Operations of the calibration loop per sample, about 8 ms. *)
let calib_ops = 50_000

(* Daemon starts per run for setup_s, each one set-up time; their median
   is the metric.  About 1.5 s in all. *)
let starts = 15

let base = [ "edf"; "pfabric" ]

let churn_tenant =
  Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:30_000 ~id:2
    ~name:"churn" ()

let id_names = [ ("0", "pfabric"); ("1", "edf"); ("2", "churn") ]

type op = Add | Update | Remove | Status | Metrics | Query

let op_name = function
  | Add -> "tenant-add"
  | Update -> "policy-update"
  | Remove -> "tenant-remove"
  | Status -> "status"
  | Metrics -> "GET /metrics"
  | Query -> "GET /query"

let policy s = Some (Qvisor.Policy.parse_exn s)

let request = function
  | Add ->
    P.Tenant_add
      { tenant = churn_tenant; policy = policy "edf >> pfabric >> churn" }
  | Update -> P.Policy_update (Qvisor.Policy.parse_exn "edf >> churn >> pfabric")
  | Remove -> P.Tenant_remove { tenant_id = 2; policy = policy "edf >> pfabric" }
  | Status | Metrics | Query -> P.Status

(* Population after a successful [op], from population [pop]. *)
let next_pop pop = function
  | Add -> List.sort compare ("churn" :: pop)
  | Remove -> List.filter (fun n -> n <> "churn") pop
  | Update | Status | Metrics | Query -> pop

let now () = Int64.to_float (Probe.now_ns ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Schedule                                                           *)
(* ------------------------------------------------------------------ *)

(* Due times (seconds from the window start) for both streams.  Control
   requests arrive as a Poisson process, like independent operators; the
   control stream opens and closes with a status, whose sim_time and
   uptime bracket the window for sim_s_per_s.  Scrapes come at a fixed
   period with a random offset of up to a quarter period, like a
   scraper's timer: Poisson scrapes would queue behind each other on the
   one HTTP connection and make the tail measure the draw. *)
let schedule ~seed ~seconds =
  let rng = Engine.Rng.create ~seed in
  let ctl_rng = Engine.Rng.split rng and http_rng = Engine.Rng.split rng in
  let ctl_ops = [| Add; Update; Remove; Status |] in
  let rec poisson t i acc =
    let t = t +. Engine.Rng.exponential ctl_rng ~mean:(1. /. ctl_rate) in
    if t >= seconds then List.rev acc
    else poisson t (i + 1) ((t, ctl_ops.(i mod 4)) :: acc)
  in
  let period = 1. /. scrape_rate in
  let scrapes =
    List.init
      (int_of_float (seconds /. period))
      (fun i ->
        ( (float_of_int i *. period)
          +. Engine.Rng.float_range http_rng ~lo:0. ~hi:(period /. 4.),
          if i mod 2 = 0 then Metrics else Query ))
  in
  (((0., Status) :: poisson 0. 0 []) @ [ (seconds, Status) ], scrapes)

(* ------------------------------------------------------------------ *)
(* Line-buffered control connection                                   *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let chunk = Bytes.create 65536

(* Read what is available; [false] on end of file. *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.buf chunk 0 n;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> true

let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

let send fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Block (up to [timeout]) for one reply line. *)
let read_line c =
  let deadline = now () +. timeout in
  let rec go () =
    match take_line c with
    | Some l -> Some l
    | None ->
      let left = deadline -. now () in
      if left <= 0. then None
      else begin
        match Unix.select [ c.fd ] [] [] left with
        | [], _, _ -> go ()
        | _ -> if fill c then go () else None
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      end
  in
  go ()

let connect_ctl path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; buf = Buffer.create 4096 }

let status_of_line line =
  match P.parse_outcome line with
  | Ok (Ok (P.Status_reply s)) -> Some s
  | _ -> None

let names (s : P.status) =
  List.sort compare (List.map (fun t -> t.P.ts_name) s.P.tenants)

(* ------------------------------------------------------------------ *)
(* The open-loop client                                               *)
(* ------------------------------------------------------------------ *)

(* Times on the client's active clock, which leaves out the pauses for
   host-speed samples; a failed request has [fin = infinity]. *)
type sample = { op : op; due : float; sent : float; fin : float }

(* A counter reading: the value and the active time it was received at. *)
type reading = { at : float; value : float }

type window = {
  samples : sample list;
  calib : (float * float) array;
      (* (active time, calibration ns/op) at each pause, in time order *)
  sim : (reading * reading) option;  (* status sim_time, first and last *)
  enq : (reading * reading) option;  (* /metrics packet enqueues, first and last *)
  alloc_b : float;  (* daemon minor-heap bytes between those two scrapes *)
  active_s : float;  (* the window's length on the active clock *)
  client_cpu_s : float;  (* the client's CPU time outside the pauses *)
  metrics_bodies : int;
  failed : string list;
}

type pending = { p_op : op; p_due : float; p_sent : float }

type scrape = {
  s_op : op;
  s_fd : Unix.file_descr;
  s_due : float;
  s_sent : float;
  s_buf : Buffer.t;
  lo : int;  (* control replies received when the scrape was sent *)
}

let http_request op =
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    (match op with Metrics -> "/metrics" | _ -> "/query")

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* Split a complete HTTP response into status code and body. *)
let parse_response s =
  match find_sub s "\r\n\r\n" with
  | None -> None
  | Some i ->
    let body = String.sub s (i + 4) (String.length s - i - 4) in
    (try Some (Scanf.sscanf s "HTTP/1.%_d %d" (fun code -> code), body)
     with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

(* What a /metrics body says: the tenants it lists and the packets
   enqueued on every port so far, a count of simulated events that covers
   every tenant, the churned one too. *)
type scraped = { tenants : string list; enqueues : float }

let read_metrics body =
  match Engine.Exposition.parse body with
  | Error e -> Error e
  | Ok lines ->
    let found = Hashtbl.create 4 and enqueues = ref nan in
    List.iter
      (function
        | Engine.Exposition.Sample s -> (
          if s.Engine.Exposition.sample_name = "qvisor_net_enqueue_total" then
            enqueues := s.Engine.Exposition.value;
          match List.assoc_opt "tenant" s.Engine.Exposition.labels with
          | Some v ->
            let tenant = Option.value (List.assoc_opt v id_names) ~default:v in
            Hashtbl.replace found tenant ()
          | None -> ())
        | _ -> ())
      lines;
    Ok
      {
        tenants = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) found []);
        enqueues = !enqueues;
      }

(* The daemon's minor-heap allocation, read from its runtime-events ring
   (the daemon runs with OCAML_RUNTIME_EVENTS_START=1).  [poll] must run
   often enough that the ring never wraps; lost events are counted. *)
type alloc_meter = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  bytes : int ref;
  lost : int ref;
}

let alloc_meter ~dir ~pid =
  let bytes = ref 0 and lost = ref 0 in
  let runtime_counter _ _ c v =
    match c with
    | Runtime_events.EV_C_MINOR_ALLOCATED -> bytes := !bytes + v
    | _ -> ()
  in
  let lost_events _ n = lost := !lost + n in
  {
    cursor = Runtime_events.create_cursor (Some (dir, pid));
    callbacks = Runtime_events.Callbacks.create ~runtime_counter ~lost_events ();
    bytes;
    lost;
  }

let poll_alloc m = ignore (Runtime_events.read_poll m.cursor m.callbacks None)

(* Stop the daemon, time the calibration loop on the core it shares with
   the client (run.py pins both to one core), and let the daemon go on.
   Stopped, the daemon asks nothing of the core, so the sample is the
   host's speed alone, whatever the daemon's own CPU demand; frozen, the
   daemon loses nothing but wall-clock time, which the client leaves out
   of its active clock. *)
let paused_calibration pid =
  Unix.kill pid Sys.sigstop;
  let rec stopped () =
    match Unix.waitpid [ Unix.WUNTRACED ] pid with
    | _, Unix.WSTOPPED _ -> ()
    | _ -> failwith "the daemon exited"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> stopped ()
  in
  stopped ();
  let c = Calib.ns_per_op ~ops:calib_ops () in
  Unix.kill pid Sys.sigcont;
  c

(* Drive one window.  [ctl] is connected and idle; [status0] is the
   daemon's last status reply.  With [pid], the window pauses the daemon
   for a host-speed sample every [calib_period] of active time, and once
   more at its end. *)
let drive ?meter ?pid ~ctl ~port ~seed ~seconds ~(status0 : P.status) () =
  let epoch0 = status0.P.epoch and pop0 = names status0 in
  let ctl_due, http_due = schedule ~seed ~seconds in
  let ctl_due = ref ctl_due and http_due = ref http_due in
  let samples = ref [] and failed = ref [] and metrics_bodies = ref 0 in
  (* (enqueues, daemon bytes) at the first and the latest /metrics *)
  let first_scrape = ref None and last_scrape = ref None in
  let alloc () =
    match meter with
    | Some m ->
      poll_alloc m;
      float_of_int !(m.bytes)
    | None -> nan
  in
  let fail op what =
    if List.length !failed < 20 then
      failed := Printf.sprintf "FAILED: %s: %s" (op_name op) what :: !failed
  in
  let record op ~due ~sent ~ok ~fin =
    samples := { op; due; sent; fin = (if ok then fin else infinity) } :: !samples
  in
  (* Expected daemon state, advanced in reply order (the daemon serves
     one connection's lines in order).  Remediation resynthesizes on its
     own and bumps the epoch too, so each mutation reply is only checked
     to bump it; every status then checks the exact count: the initial
     epoch, plus one per successful mutation, plus one per remediation
     the daemon reports. *)
  let epoch = ref epoch0 and pop = ref pop0 and mutations = ref 0 in
  (* pops k: population after the first k control requests, had they all
     succeeded. *)
  let pops = Hashtbl.create 1024 and sent_n = ref 0 and replied = ref 0 in
  Hashtbl.replace pops 0 pop0;
  let first_status = ref None and last_status = ref None in
  let outstanding = Queue.create () in
  let scrape = ref None in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let t0 = now () and paused = ref 0. and cpu0 = cpu () in
  let clock () = now () -. t0 -. !paused in
  let calib = ref [] in
  let pause pid =
    let at = clock () and w0 = now () in
    let c = paused_calibration pid in
    paused := !paused +. (now () -. w0);
    calib := (at, c) :: !calib
  in
  let on_reply line =
    let p = Queue.pop outstanding in
    incr replied;
    let fin = clock () in
    let ok, why =
      match (P.parse_outcome line, p.p_op) with
      | Error e, _ -> (false, "undecodable reply: " ^ Qvisor.Error.to_string e)
      | Ok (Error e), _ -> (false, "error reply: " ^ Qvisor.Error.to_string e)
      | Ok (Ok (P.Added { epoch = e })), Add
      | Ok (Ok (P.Updated { epoch = e })), Update
      | Ok (Ok (P.Removed { epoch = e })), Remove ->
        let bumped = e > !epoch in
        let before = !epoch in
        epoch := e;
        incr mutations;
        pop := next_pop !pop p.p_op;
        (bumped, Printf.sprintf "epoch %d after %d" e before)
      | Ok (Ok (P.Status_reply s)), Status ->
        let sim = { at = fin; value = s.P.sim_time } in
        if !first_status = None then first_status := Some sim;
        last_status := Some sim;
        let expected =
          epoch0 + !mutations + s.P.remediations - status0.P.remediations
        in
        epoch := s.P.epoch;
        ( s.P.epoch = expected && names s = !pop && not s.P.draining,
          Printf.sprintf "status epoch %d tenants [%s], expected %d [%s]"
            s.P.epoch (String.concat "," (names s)) expected
            (String.concat "," !pop) )
      | Ok (Ok _), _ -> (false, "reply does not match the request")
    in
    if not ok then fail p.p_op why;
    record p.p_op ~due:p.p_due ~sent:p.p_sent ~ok ~fin
  in
  let finish_scrape s =
    scrape := None;
    (try Unix.close s.s_fd with Unix.Unix_error _ -> ());
    let fin = clock () in
    let hi = !sent_n in
    let ok, why =
      match parse_response (Buffer.contents s.s_buf) with
      | None -> (false, "malformed HTTP response")
      | Some (code, _) when code <> 200 -> (false, Printf.sprintf "HTTP %d" code)
      | Some (_, body) -> (
        match s.s_op with
        | Metrics -> (
          incr metrics_bodies;
          match read_metrics body with
          | Error e -> (false, "exposition does not parse: " ^ e)
          | Ok { tenants; enqueues } ->
            let point = ({ at = fin; value = enqueues }, alloc ()) in
            if !first_scrape = None then first_scrape := Some point;
            last_scrape := Some point;
            let rec admitted k =
              k <= hi && (Hashtbl.find pops k = tenants || admitted (k + 1))
            in
            ( admitted s.lo,
              Printf.sprintf "lists tenants [%s], none of the populations \
                              admitted while in flight"
                (String.concat "," tenants) ))
        | _ -> (
          match Engine.Json.of_string body with
          | Ok _ -> (true, "")
          | Error e -> (false, "body is not JSON: " ^ e)))
    in
    if not ok then fail s.s_op why;
    record s.s_op ~due:s.s_due ~sent:s.s_sent ~ok ~fin
  in
  let start_scrape (due, op) =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    let sent = clock () in
    match
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      send fd (http_request op);
      Unix.set_nonblock fd
    with
    | () ->
      scrape :=
        Some
          {
            s_op = op;
            s_fd = fd;
            s_due = due;
            s_sent = sent;
            s_buf = Buffer.create 65536;
            lo = !replied;
          }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail op (Unix.error_message e);
      record op ~due ~sent ~ok:false ~fin:sent
  in
  let ctl_eof = ref false in
  let next_calib = ref 0. in
  let rec loop () =
    Option.iter poll_alloc meter;
    (match pid with
    | Some pid when clock () >= !next_calib && !next_calib < seconds ->
      pause pid;
      next_calib := !next_calib +. calib_period
    | _ -> ());
    let t = clock () in
    (* Send every control request that is due, pipelined. *)
    let rec send_due () =
      match !ctl_due with
      | (due, op) :: rest when due <= t && not !ctl_eof ->
        ctl_due := rest;
        let sent = clock () in
        send ctl.fd (P.request_line (request op) ^ "\n");
        incr sent_n;
        Hashtbl.replace pops !sent_n (next_pop (Hashtbl.find pops (!sent_n - 1)) op);
        Queue.push { p_op = op; p_due = due; p_sent = sent } outstanding;
        send_due ()
      | _ -> ()
    in
    send_due ();
    (match (!scrape, !http_due) with
    | None, ((due, _) as d) :: rest when due <= t ->
      http_due := rest;
      start_scrape d
    | _ -> ());
    let overdue =
      (match Queue.peek_opt outstanding with
      | Some p -> t -. p.p_due > timeout
      | None -> false)
      || match !scrape with Some s -> t -. s.s_due > timeout | None -> false
    in
    let idle =
      !ctl_due = [] && !http_due = [] && Queue.is_empty outstanding
      && !scrape = None
    in
    if not (idle || overdue || !ctl_eof) then begin
      let next =
        List.fold_left Float.min (t +. 0.05)
          ((match !ctl_due with (d, _) :: _ -> [ d ] | [] -> [])
          @
          match (!scrape, !http_due) with
          | None, (d, _) :: _ -> [ d ]
          | _ -> [])
      in
      let fds =
        ctl.fd :: (match !scrape with Some s -> [ s.s_fd ] | None -> [])
      in
      (match Unix.select fds [] [] (Float.max 0. (next -. t)) with
      | readable, _, _ ->
        if List.memq ctl.fd readable then begin
          if not (fill ctl) then ctl_eof := true;
          let rec lines () =
            match take_line ctl with
            | Some l when not (Queue.is_empty outstanding) ->
              on_reply l;
              lines ()
            | _ -> ()
          in
          lines ()
        end;
        (match !scrape with
        | Some s when List.memq s.s_fd readable -> (
          match Unix.read s.s_fd chunk 0 (Bytes.length chunk) with
          | 0 -> finish_scrape s
          | n -> Buffer.add_subbytes s.s_buf chunk 0 n
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
          | exception Unix.Unix_error (_, _, _) -> finish_scrape s)
        | _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  let active_s = clock () and client_cpu_s = cpu () -. cpu0 -. !paused in
  Option.iter pause pid;
  (* Whatever is still unanswered timed out; whatever was never sent
     (the run was cut short) counts as failed too. *)
  Queue.iter
    (fun p ->
      fail p.p_op "timed out";
      record p.p_op ~due:p.p_due ~sent:p.p_sent ~ok:false ~fin:0.)
    outstanding;
  Option.iter
    (fun s ->
      (try Unix.close s.s_fd with Unix.Unix_error _ -> ());
      fail s.s_op "timed out";
      record s.s_op ~due:s.s_due ~sent:s.s_sent ~ok:false ~fin:0.)
    !scrape;
  List.iter
    (fun (due, op) ->
      fail op "never sent";
      record op ~due ~sent:due ~ok:false ~fin:0.)
    (!ctl_due @ !http_due);
  let span first last =
    match (first, last) with
    | Some a, Some b when b.at > a.at && b.value > a.value -> Some (a, b)
    | _ -> None
  in
  let enq, alloc_b =
    match (!first_scrape, !last_scrape) with
    | Some (a, b0), Some (b, b1) -> (span (Some a) (Some b), b1 -. b0)
    | _ -> (None, nan)
  in
  let lost = match meter with Some m -> !(m.lost) | None -> 0 in
  {
    samples = !samples;
    calib = Array.of_list (List.rev !calib);
    sim = span !first_status !last_status;
    enq;
    alloc_b = (if lost > 0 then nan else alloc_b);
    active_s;
    client_cpu_s;
    metrics_bodies = !metrics_bodies;
    failed = List.rev !failed;
  }

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  out : in_channel;
  ctl : conn;
  port : int;
  sock : string;
  setup_s : float;  (* spawn to first successful status reply *)
  status : P.status;
  meter : alloc_meter;
}

(* Spawn the daemon, with its runtime-events ring in [dir], and wait for
   its first status reply. *)
let spawn ~exe ~dir ~sock ~seed =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process_env exe
      [|
        exe; "serve"; "--socket"; sock; "--http"; "0"; "--seed";
        string_of_int seed; "--drain-timeout"; "1ms";
      |]
      (Array.append (Unix.environment ())
         [|
           "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ dir;
         |])
      devnull out_w Unix.stderr
  in
  Unix.close out_w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr out_r in
  let rec port () =
    match input_line out with
    | line -> (
      try Scanf.sscanf line "metrics: http://127.0.0.1:%d/metrics" Fun.id
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> port ())
    | exception End_of_file -> failwith "daemon exited before it listened"
  in
  let port = port () in
  let meter = alloc_meter ~dir ~pid in
  let ctl = connect_ctl sock in
  send ctl.fd (P.request_line P.Status ^ "\n");
  match Option.bind (read_line ctl) status_of_line with
  | None -> failwith "no status reply from the daemon"
  | Some status ->
    { pid; out; ctl; port; sock; setup_s = now () -. t0; status; meter }

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    if now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else begin
      Unix.sleepf 0.005;
      wait_exit pid ~deadline
    end
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~deadline

(* Ask for a shutdown, then make sure the process is gone. *)
let stop d =
  (try
     send d.ctl.fd (P.request_line P.Shutdown ^ "\n");
     ignore (read_line d.ctl)
   with Unix.Unix_error _ -> ());
  (try Unix.close d.ctl.fd with Unix.Unix_error _ -> ());
  wait_exit d.pid ~deadline:(now () +. timeout);
  close_in_noerr d.out;
  Runtime_events.free_cursor d.meter.cursor;
  try Sys.remove d.sock with Sys_error _ -> ()

let kill_quietly d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  close_in_noerr d.out;
  try Sys.remove d.sock with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let ms x = x *. 1e3

(* The window's reference clock: active time in which each stretch
   between two pauses is divided by the host's slowdown over it, the mean
   of the calibration samples at its two ends over the loop's reference
   speed.  A span on it is what the span would have taken on the
   reference host.  With no samples it is the active clock. *)
let reference_clock w =
  let c = w.calib in
  let n = Array.length c in
  if n = 0 then Fun.id
  else begin
    let k i =
      (snd c.(i) +. snd c.(min (n - 1) (i + 1))) /. (2. *. Calib.reference_ns)
    in
    let start = Array.make n 0. in
    for i = 1 to n - 1 do
      start.(i) <- start.(i - 1) +. ((fst c.(i) -. fst c.(i - 1)) /. k (i - 1))
    done;
    fun t ->
      let rec stretch i = if i + 1 < n && fst c.(i + 1) <= t then stretch (i + 1) else i in
      let i = stretch 0 in
      start.(i) +. ((t -. fst c.(i)) /. k i)
  end

let slowdown w =
  Stats.median
    (Array.to_list (Array.map (fun (_, c) -> c /. Calib.reference_ns) w.calib))

let latencies ?(clock = Fun.id) w ops =
  List.filter_map
    (fun s -> if List.mem s.op ops then Some (clock s.fin -. clock s.due) else None)
    w.samples

let ctl_ops = [ Add; Update; Remove; Status ]

let scrape_ops = [ Metrics; Query ]

(* Cap a failed (infinite) percentile at the timeout so the report stays
   valid JSON; such a run is already marked incorrect. *)
let pct xs p = ms (Float.min timeout (Stats.percentile xs p))

(* The window's end-to-end metrics, on the reference clock;
   [~rescale:false] gives them on the active clock, as measured.  The
   caller passes the matching [setup_s]. *)
let window_metrics ?(rescale = true) w ~setup_s =
  let clock = if rescale then reference_clock w else Fun.id in
  let rate = function
    | Some (a, b) -> (b.value -. a.value) /. (clock b.at -. clock a.at)
    | None -> nan
  in
  let ctl = latencies ~clock w ctl_ops and scr = latencies ~clock w scrape_ops in
  ( [
      Report.m "setup_s" "s" setup_s;
      Report.m "events_per_s" "1/s" (rate w.enq);
      Report.m "alloc_b_per_event" "B"
        (match w.enq with Some (a, b) -> w.alloc_b /. (b.value -. a.value) | None -> nan);
      Report.m "sim_s_per_s" "s/s" (rate w.sim);
      Report.m "ctl_p50_ms" "ms" (pct ctl 0.5);
      Report.m "ctl_p90_ms" "ms" (pct ctl 0.9);
      Report.m "scrape_p50_ms" "ms" (pct scr 0.5);
      Report.m "scrape_p90_ms" "ms" (pct scr 0.9);
    ],
    Printf.sprintf "percentiles over %d control and %d scrape requests"
      (List.length ctl) (List.length scr) )

let raw_note w ~setup_s =
  Printf.sprintf "not rescaled: %s; median slowdown %.3f over %d samples"
    (String.concat ", "
       (List.filter_map
          (fun (m : Report.metric) ->
            if m.Report.name = "alloc_b_per_event" then None
            else Some (Printf.sprintf "%s %.4g" m.Report.name m.Report.value))
          (fst (window_metrics ~rescale:false w ~setup_s))))
    (slowdown w) (Array.length w.calib)

let client_note w =
  let late = List.map (fun s -> ms (s.sent -. s.due)) w.samples in
  Printf.sprintf
    "generator lateness p50 %.3f ms, p90 %.3f ms, max %.3f ms; client CPU \
     %.2f s in the %.1f s window (%.1f%% of the shared core)"
    (Stats.percentile late 0.5) (Stats.percentile late 0.9)
    (Stats.percentile late 1.) w.client_cpu_s w.active_s
    (100. *. w.client_cpu_s /. w.active_s)

let with_daemons f =
  let live = ref [] in
  let track d =
    live := d :: !live;
    d
  in
  let untrack d = live := List.filter (fun x -> x.pid <> d.pid) !live in
  Fun.protect
    ~finally:(fun () -> List.iter kill_quietly !live)
    (fun () -> f ~track ~untrack)

(* Start the daemon [starts] times, keeping the last one running.  Each
   start's time is rescaled by the host's speed beside it: a calibration
   sample just before the spawn, with no daemon running, and one with the
   new daemon paused right after its first status reply.  Returns the
   daemon and each start's (measured, rescaled) set-up time. *)
let start_measured ledger ~exe ~tmp ~seed ~starts ~track ~untrack =
  let sock = Filename.concat tmp "serve.sock" in
  let rec go n acc =
    let before = Calib.ns_per_op ~ops:calib_ops () in
    let d = track (spawn ~exe ~dir:tmp ~sock ~seed) in
    let after = paused_calibration d.pid in
    let k = (before +. after) /. (2. *. Calib.reference_ns) in
    let ok = d.status.P.epoch = 1 && names d.status = base in
    Report.count ledger ok ~what:"start: unexpected initial status";
    let acc = (d.setup_s, d.setup_s /. k) :: acc in
    if n + 1 >= starts then (d, acc)
    else begin
      stop d;
      untrack d;
      go (n + 1) acc
    end
  in
  go 0 []

(* Every request of a window is one operation; a failed one carries an
   infinite latency. *)
let account ledger w =
  List.iter
    (fun s ->
      ledger.Report.ops <- ledger.Report.ops + 1;
      if s.fin = infinity then ledger.Report.bad <- ledger.Report.bad + 1)
    w.samples;
  ledger.Report.log <- List.rev_append w.failed ledger.Report.log

let untraced ~exe ~tmp ~seed ~seconds =
  let ledger = Report.ledger () in
  with_daemons @@ fun ~track ~untrack ->
  let d, setups = start_measured ledger ~exe ~tmp ~seed ~starts ~track ~untrack in
  let w =
    drive ~meter:d.meter ~pid:d.pid ~ctl:d.ctl ~port:d.port ~seed ~seconds
      ~status0:d.status ()
  in
  let rss = Fig4_bench.vmhwm_mb (string_of_int d.pid) in
  stop d;
  untrack d;
  account ledger w;
  let e2e, counts = window_metrics w ~setup_s:(Stats.median (List.map snd setups)) in
  {
    Report.attempted = ledger.Report.ops;
    failed = ledger.Report.bad;
    e2e = e2e @ [ Report.m "peak_rss_mb" "MB" rss ];
    traced_e2e = [];
    layers = [];
    notes =
      Printf.sprintf "%s; set-up median over %d starts" counts (List.length setups)
      :: raw_note w ~setup_s:(Stats.median (List.map fst setups))
      :: client_note w
      :: Report.failures ledger;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                         *)
(* ------------------------------------------------------------------ *)

let time_ms f =
  let t0 = Probe.now_ns () in
  let r = f () in
  (Int64.to_float (Int64.sub (Probe.now_ns ()) t0) *. 1e-6, r)

let counters_sum tel suffix =
  List.fold_left
    (fun acc (name, v) ->
      if String.ends_with ~suffix name
         && String.starts_with ~prefix:"daemon.tenant." name
      then acc + v
      else acc)
    0
    (Engine.Telemetry.exported_counters tel)

let traced ~exe ~tmp ~seed ~seconds =
  let ledger = Report.ledger () in
  (* A: the measured program — the daemon binary, untraced. *)
  let w, setups =
    with_daemons @@ fun ~track ~untrack ->
    let d, setups =
      start_measured ledger ~exe ~tmp ~seed ~starts:3 ~track ~untrack
    in
    let w =
      drive ~meter:d.meter ~pid:d.pid ~ctl:d.ctl ~port:d.port ~seed
        ~seconds:(0.45 *. seconds) ~status0:d.status ()
    in
    stop d;
    untrack d;
    (w, setups)
  in
  account ledger w;
  (* B: the same daemon in-process, serving on a second domain under the
     same client, so its handlers can be timed once it has served. *)
  let telemetry = Engine.Telemetry.create () in
  let config =
    {
      Daemon.Server.default_config with
      Daemon.Server.socket_path = Filename.concat tmp "traced.sock";
      http_port = 0;
      seed;
      drain_timeout = 0.001;
      telemetry;
    }
  in
  let t_create = now () in
  let server =
    match Daemon.Server.create config with
    | Ok s -> s
    | Error e -> failwith (Qvisor.Error.to_string e)
  in
  let dom = Domain.spawn (fun () -> Daemon.Server.serve server) in
  let wb, setup_b =
    Fun.protect
      ~finally:(fun () ->
        Daemon.Server.stop server;
        Domain.join dom)
      (fun () ->
        let ctl = connect_ctl config.Daemon.Server.socket_path in
        send ctl.fd (P.request_line P.Status ^ "\n");
        match Option.bind (read_line ctl) status_of_line with
        | None -> failwith "no status reply from the in-process daemon"
        | Some st ->
          let setup_b = now () -. t_create in
          let wb =
            drive ~ctl ~port:(Daemon.Server.http_port server) ~seed
              ~seconds:(0.35 *. seconds) ~status0:st ()
          in
          Unix.close ctl.fd;
          (wb, setup_b))
  in
  account ledger wb;
  let started = counters_sum telemetry ".flows_started" in
  let completed = counters_sum telemetry ".flows_completed" in
  (* C: time the handlers in-process on the daemon that has served.  The
     window may have ended mid-cycle; the rounds start from the base
     population. *)
  (match Daemon.Server.handle_request server P.Status with
  | Ok (P.Status_reply st) when names st <> base ->
    ignore (Daemon.Server.handle_request server (request Remove))
  | _ -> ());
  let rounds = 25 in
  let handler = Hashtbl.create 4 in
  for _ = 1 to rounds do
    List.iter
      (fun op ->
        let t, outcome =
          time_ms (fun () -> Daemon.Server.handle_request server (request op))
        in
        Report.count ledger (Result.is_ok outcome)
          ~what:(op_name op ^ ": in-process handler failed");
        Hashtbl.replace handler op
          (t :: Option.value (Hashtbl.find_opt handler op) ~default:[]))
      ctl_ops
  done;
  let handler_ms op = Stats.median (Hashtbl.find handler op) in
  let all_handlers = List.concat_map (Hashtbl.find handler) ctl_ops in
  let repeat f =
    let runs = List.init rounds (fun _ -> time_ms f) in
    (Stats.median (List.map fst runs), snd (List.hd runs))
  in
  let metrics_ms, metrics_body =
    repeat (fun () -> Daemon.Server.metrics_body server)
  in
  let query_ms, query_body =
    repeat (fun () -> Daemon.Server.query_body server [])
  in
  let query_bytes =
    match query_body with Ok b -> String.length b | Error _ -> 0
  in
  Report.count ledger (Result.is_ok query_body) ~what:"in-process query_body";
  let snapshot_ms, () = repeat (fun () -> Daemon.Server.snapshot server) in
  (* The in-process daemon cannot be paused for host-speed samples, so
     both sets of end-to-end numbers are printed as measured. *)
  let e2e_a, counts_a =
    window_metrics ~rescale:false w ~setup_s:(Stats.median (List.map fst setups))
  in
  let e2e_b, counts_b = window_metrics ~rescale:false wb ~setup_s:setup_b in
  let ctl_p50 = pct (latencies w ctl_ops) 0.5 in
  let late = List.map (fun s -> ms (s.sent -. s.due)) w.samples in
  let layers =
    [
      Report.m "exposition.renders" "count" (float_of_int w.metrics_bodies);
      Report.m "exposition.render_ms" "ms" metrics_ms;
      Report.m "exposition.bytes" "B"
        (float_of_int (String.length metrics_body));
      Report.m "serve.handle.tenant_add_ms" "ms" (handler_ms Add);
      Report.m "serve.handle.tenant_remove_ms" "ms" (handler_ms Remove);
      Report.m "serve.handle.policy_update_ms" "ms" (handler_ms Update);
      Report.m "serve.handle.status_ms" "ms" (handler_ms Status);
      Report.m "serve.loop_wait_ms" "ms" (ctl_p50 -. Stats.median all_handlers);
      Report.m "serve.metrics_body_ms" "ms" metrics_ms;
      Report.m "serve.metrics_bytes" "B"
        (float_of_int (String.length metrics_body));
      Report.m "serve.query_body_ms" "ms" query_ms;
      Report.m "serve.query_bytes" "B" (float_of_int query_bytes);
      Report.m "serve.snapshot_ms" "ms" snapshot_ms;
      Report.m "serve.generator_late_ms" "ms" (Stats.percentile late 0.9);
      Report.m "serve.flows_completed_ratio" "ratio"
        (float_of_int completed /. float_of_int (max 1 started));
    ]
  in
  {
    Report.attempted = ledger.Report.ops;
    failed = ledger.Report.bad;
    e2e = e2e_a;
    traced_e2e = e2e_b;
    layers;
    notes =
      [
        "untraced: the daemon binary; " ^ counts_a;
        "traced: the same daemon in-process on a second domain; " ^ counts_b;
        "both sets of end-to-end numbers as measured, not rescaled";
        Printf.sprintf
          "handlers, bodies and snapshots timed in-process %d times each on \
           the traced daemon after it served"
          rounds;
      ]
      @ Report.failures ledger;
  }
