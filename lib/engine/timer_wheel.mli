(** Timer-wheel event queue — a drop-in replacement for {!Event_queue} on
    the simulation hot path.

    Virtual times quantize to integer ticks (default [2^-24] s ≈ 59.6 ns —
    a power of two so tick arithmetic is exact float scaling); events
    within the wheel's horizon ([2^slots_pow2] ticks, ~244 µs at the
    defaults) get O(1) push and near-O(1) pop via a hierarchical
    find-first-set bitmap over the slots, while farther events overflow to
    a binary heap and are merged back by a head-to-head comparison at pop
    time.  Quantization never reorders: ticks are monotone in time and
    within a tick events sort by exact (time, push order).

    Ordering is {e identical} to {!Event_queue}: events pop in
    non-decreasing time, FIFO among equal times (global push order), which
    keeps every simulation byte-identical when swapped in. *)

type 'a t

val create : ?tick:float -> ?slots_pow2:int -> unit -> 'a t
(** [tick] is the quantization step in seconds (default [2^-24]);
    [slots_pow2] the log2 slot count (default [12], keeping the slot
    anchors L2-resident).
    @raise Invalid_argument if [tick <= 0] or [slots_pow2] outside
    [\[5, 24\]]. *)

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event to fire at [time].  Times must be non-negative and not
    precede the last popped event's time (both hold for {!Sim}, whose
    clock never runs backwards). *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, FIFO among equal times. *)

val pop_before : 'a t -> horizon:float -> (float -> 'a -> unit) -> bool
(** [pop_before t ~horizon f] removes the earliest event only if its time
    is [<= horizon], then hands it to [f time payload] and returns [true];
    [false] (nothing removed) otherwise.  One head lookup instead of a
    peek-then-pop pair, and no allocation: the simulator's event loop. *)

val peek_time : 'a t -> float option

val size : 'a t -> int

val is_empty : 'a t -> bool

val clear : 'a t -> unit
