(** A binary min-heap of timestamped events.

    Ties in time are broken by insertion order (FIFO), which makes
    simulations deterministic regardless of heap internals. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event to fire at [time]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, FIFO among equal times. *)

val peek_time : 'a t -> float option
(** Time of the earliest event without removing it. *)

val top : 'a t -> 'a
(** The earliest event's payload, without removing it and without
    allocating.
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
