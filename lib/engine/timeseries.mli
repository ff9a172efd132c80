(** Bucketed time series.

    Accumulates (time, value) observations into fixed-width buckets —
    e.g. per-tenant delivered bytes over time, to plot activity timelines
    like the paper's Fig. 2. *)

type t

val create : bucket:float -> unit -> t
(** [create ~bucket] aggregates into buckets of [bucket] seconds.
    @raise Invalid_argument if [bucket <= 0.]. *)

val add : t -> time:float -> float -> unit
(** Accumulate a value at a (non-negative) virtual time. *)

val buckets : t -> (float * float) list
(** [(bucket_start_time, sum)] pairs in time order, empty buckets between
    the first and last observation included as zeros. *)

val rate : t -> (float * float) list
(** Like {!buckets} but values divided by the bucket width — a rate in
    units/second. *)

val total : t -> float

val pp : ?width:int -> unit -> Format.formatter -> t -> unit
(** Render an ASCII sparkline-style bar chart, [width] columns of
    resolution (default 50). *)
