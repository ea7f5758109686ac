(** Simulated time.

    Time is an absolute instant measured in integer nanoseconds since the
    start of the simulation. Using integers keeps event ordering exact and
    the simulator deterministic; floating-point seconds are only used at the
    API boundary. *)

type t = private int
(** An instant, in nanoseconds since simulation start. Total order.
    Immediate (63-bit nanoseconds reach past year 2260): the scheduler
    touches an instant on every schedule and every pop, and a boxed
    representation would cost an allocation per event. *)

type span = int64
(** A duration in nanoseconds. Durations are plain [int64] so arithmetic
    stays lightweight in the event loop. *)

val zero : t
(** Simulation start. *)

val of_ns : int64 -> t
(** [of_ns n] is the instant [n] nanoseconds after start.
    @raise Invalid_argument if [n] is negative. *)

val to_ns : t -> int64

val of_int_ns : int -> t
(** {!of_ns} on an already-immediate nanosecond count — allocation-free,
    for hot paths that carry instants as native ints (the event wheel's
    keys, pooled packet timestamps).
    @raise Invalid_argument if negative. *)

val to_int_ns : t -> int
(** {!to_ns} without the box; the identity, at this representation. *)

val of_sec : float -> t
(** [of_sec s] rounds [s] seconds to the nearest nanosecond.
    @raise Invalid_argument if [s] is negative or not finite. *)

val to_sec : t -> float

val of_us : float -> t
(** Microseconds variant of {!of_sec}. *)

val of_ms : float -> t
(** Milliseconds variant of {!of_sec}. *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val diff : t -> t -> span
(** [diff a b] is [a - b] in nanoseconds (negative if [a] precedes [b]). *)

val span_of_sec : float -> span
(** Duration conversion; requires a non-negative finite argument. *)

val span_of_us : float -> span
val span_of_ms : float -> span
val span_to_sec : span -> float

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val min : t -> t -> t

val to_string : t -> string
(** Prints with an adaptive unit (ns/us/ms/s). *)
