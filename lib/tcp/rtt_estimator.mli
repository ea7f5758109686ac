(** RTT estimation and retransmission timeout per RFC 6298.

    [srtt]/[rttvar] use the standard gains (1/8, 1/4); the resulting RTO is
    clamped to [[min_rto, max_rto]]. The minimum RTO is the parameter that
    dominates Incast behaviour (200 ms in the Linux stacks the paper's
    testbed ran), so it is explicit here. *)

type t

val create :
  min_rto:Engine.Time.span ->
  max_rto:Engine.Time.span ->
  initial_rto:Engine.Time.span ->
  unit ->
  t

val sample : t -> Engine.Time.span -> unit
(** Feed a new RTT measurement (only for segments that were not
    retransmitted — Karn's rule is the caller's duty). *)

val rto : t -> Engine.Time.span
(** Current timeout value. *)

val backoff : t -> unit
(** Doubles the RTO (exponential backoff on retransmission timeout),
    clamped at [max_rto]. *)

val srtt : t -> Engine.Time.span option
(** Smoothed RTT, if at least one sample was taken. *)

