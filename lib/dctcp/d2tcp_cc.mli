(** D2TCP: deadline-aware DCTCP (Vamanan et al., SIGCOMM 2012).

    The paper under reproduction cites D2TCP as the flagship protocol
    "built on top of DCTCP"; this module implements it as an extension, on
    the {!Dctcp_cc.cc_with_penalty} hook, so it can be evaluated over
    either marking mechanism.

    D2TCP keeps DCTCP's alpha but gates the backoff by a deadline
    imminence factor [d]: the penalty is [p = alpha^d] and
    [cwnd <- cwnd (1 - p/2)]. With [d = Tc / D] — [Tc] the time the flow
    still needs at its current rate, [D] the time left to its deadline —
    far-deadline flows ([d < 1]) back off more than DCTCP and
    near-deadline flows ([d > 1]) back off less, trading bandwidth toward
    urgent flows. [d] is clamped to [[d_min, d_max]] (0.5 and 2.0 in the
    D2TCP paper); flows without progress information or with an expired
    deadline use [d_max] (maximum urgency). *)

type deadline_params = {
  base : Dctcp_cc.params;
  d_min : float;  (** Default 0.5. *)
  d_max : float;  (** Default 2.0. *)
  fallback_rtt : Engine.Time.span;
      (** Used for [Tc] before the first RTT estimate exists (default
          300 us). *)
}

val default_deadline_params : deadline_params (* dtlint: test-only: base of the clamp tests *)

val cc :
  ?params:deadline_params ->
  total_segments:int ->
  deadline:Engine.Time.t ->
  unit ->
  Tcp.Cc.factory
(** Congestion control for one flow that must deliver [total_segments] by
    [deadline].
    @raise Invalid_argument if [total_segments <= 0] or the clamp bounds
    are not [0 < d_min <= d_max]. *)

val imminence : (* dtlint: test-only: D2TCP's d formula pinned directly *)
  params:deadline_params ->
  remaining_segments:int ->
  cwnd:float ->
  rtt:Engine.Time.span ->
  time_left:Engine.Time.span ->
  float
(** The clamped deadline factor [d] (exposed for tests):
    [Tc = remaining * rtt / cwnd], [d = clamp (Tc / D)]; [d_max] if the
    deadline has passed. *)
