(** Streaming descriptive statistics (Welford's algorithm).

    An accumulator tracks count, mean, variance, min and max of a stream of
    observations in O(1) memory, numerically stably. *)

type t

val create : unit -> t
val add : t -> float -> unit

val mean : t -> float
(** 0 if no observations. *)

val stddev : t -> float
(** Population standard deviation; 0 with fewer than two
    observations. *)

val min : t -> float
(** @raise Invalid_argument if empty. *)

val max : t -> float
(** @raise Invalid_argument if empty. *)

val of_array : float array -> t
