(** Percentiles over finite samples (linear interpolation between ranks). *)

val of_sorted : float array -> float -> float
(** [of_sorted sorted p] is the [p]-th percentile ([0 <= p <= 100]) of a
    sorted array.
    @raise Invalid_argument if the array is empty or [p] out of range. *)

val of_array : float array -> float -> float
(** Copies and sorts, then {!of_sorted}. *)

val of_list : float list -> float -> float
