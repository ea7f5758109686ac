(** Percentiles over finite samples (linear interpolation between ranks). *)

val of_sorted : float array -> float -> float
(** [of_sorted sorted p] is the [p]-th percentile ([0 <= p <= 100]) of a
    sorted array.
    @raise Invalid_argument if the array is empty or [p] out of range. *)

val of_array : float array -> float -> float
(** Copies and sorts, then {!of_sorted}. *)

val of_list : float list -> float -> float

val summary : float array -> (string * float) list (* dtlint: test-only: report-table helper *)
(** min / p25 / median / p75 / p90 / p99 / max, for report tables. *)
