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

type span = private int
(** A duration in nanoseconds; negative when it runs backwards (see
    {!diff}). Immediate for the same reason as {!t}: the transport takes
    a span per RTT sample and per RTO update, and a boxed [int64] would
    cost an allocation at each. Build one with {!span_of_int_ns} or the
    float conversions; read it back with {!span_to_int_ns}. *)

val zero : t
(** Simulation start. *)

val of_ns : span -> t
(** [of_ns d] is the instant [d] after start.
    @raise Invalid_argument if [d] is negative. *)

val of_int_ns : int -> t
(** {!of_ns} on a native nanosecond count, for hot paths that carry
    instants as ints (the event wheel's keys, pooled packet timestamps).
    @raise Invalid_argument if negative. *)

val to_int_ns : t -> int
(** The instant as a native nanosecond count; the identity. *)

val span_of_int_ns : int -> span
(** The span of [n] nanoseconds (any sign); the identity. *)

val span_to_int_ns : span -> int
(** The span as a native nanosecond count; the identity. *)

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
