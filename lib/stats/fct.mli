(** Flow-completion-time slowdown.

    The headline metric of datacenter fabric studies: a flow's actual
    completion time divided by its ideal one (the transfer time it
    would see alone on an idle network), so flows of every size share
    one scale and tail percentiles are meaningful across a mixed
    workload. *)

val slowdown :
  ideal_ns:Engine.Time.span -> actual_ns:Engine.Time.span -> float
(** [actual / ideal], clamped below at 1.0 — an actual faster than the
    ideal model can only be model error and must not reward a protocol.
    @raise Invalid_argument if [ideal_ns <= 0] or [actual_ns < 0]. *)

type summary = {
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;  (** The 99.9th percentile — the incast-victim tail. *)
  mean : float;
  max : float;
  count : int;
}

val summarize : float array -> summary
(** Percentiles via {!Percentile.of_sorted} (linear interpolation) over
    a copy of the input; the input is not mutated.
    @raise Invalid_argument on an empty array. *)
