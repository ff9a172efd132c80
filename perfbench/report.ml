(* What one workload run hands back to bench.ml. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;  (** operations attempted *)
  failed : int;  (** error replies, timeouts and failed output checks *)
  e2e : metric list;  (** end-to-end metrics, untraced *)
  traced_e2e : metric list;
      (** the same end-to-end metrics measured under tracing (trace mode
          only), printed beside [e2e] to show the tracing overhead *)
  layers : metric list;  (** per-layer metrics (trace mode only) *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let m name unit_ value = { name; value; unit_ }

(* Operation accounting shared by the workloads. *)
type ledger = { mutable ops : int; mutable bad : int; mutable log : string list }

let ledger () = { ops = 0; bad = 0; log = [] }

(* Record one operation and whether it passed its checks; the first few
   failures are kept for the report. *)
let count l ok ~what =
  l.ops <- l.ops + 1;
  if not ok then begin
    l.bad <- l.bad + 1;
    if List.length l.log < 20 then l.log <- ("FAILED: " ^ what) :: l.log
  end

let failures l = List.rev l.log
