(** The DCTCP fluid model (paper Eqs. 1-3) and its DT-DCTCP variant.

    N flows over one bottleneck of capacity [c] (packets/second) with
    base round-trip time [r0] (seconds):

    {v
    dW/dt     = 1/R - W(t) alpha(t) / (2 R) * p(t - R0)
    dalpha/dt = g/R * (p(t - R0) - alpha(t))
    dq/dt     = N W(t)/R - C          (clamped at q = 0)
    v}

    With [variable_rtt] (the default, as in Alizadeh et al.'s original
    fluid model) [R = r0 + q/C], which keeps the system self-regulating
    when the per-flow window hits its 1-packet floor; with
    [variable_rtt = false] the paper's fixed-[R0] simplification is used
    (adequate only while [W0 = R0 C / N >> 1]).

    where [p] is the marking indicator produced by the switch: a relay
    [q > K] for DCTCP, the hysteresis zone machine for DT-DCTCP (identical
    semantics to {!Dctcp.Marking_policies.double_threshold}, re-stated
    here on real-valued queue lengths so the [fluid] library stays free of
    simulator dependencies).

    Window and queue are in packets. *)

type params = {
  n : int;
  c : float;  (** packets/second *)
  r0 : float;  (** seconds *)
  g : float;
  marking : marking;
  variable_rtt : bool;
  init_w : float;
  init_alpha : float;
  init_q : float;
}

and marking = Single of float | Double of float * float
    (** [Single k] | [Double (k1, k2)], thresholds in packets. *)

val make :
  ?variable_rtt:bool ->
  ?init_w:float ->
  ?init_alpha:float ->
  ?init_q:float ->
  n:int ->
  c:float ->
  r0:float ->
  g:float ->
  marking:marking ->
  unit ->
  params
(** Defaults: [W = 1], [alpha = 0], [q = 0] (cold start).
    @raise Invalid_argument on non-positive [n], [c], [r0], [g] outside
    (0,1], or negative thresholds. *)

val w0 : params -> float (* dtlint: test-only: equilibrium oracle *)
(** Equilibrium window [R0 C / N]. *)

val alpha0 : params -> float (* dtlint: test-only: equilibrium oracle *)
(** Equilibrium marking estimate [sqrt (2 / W0)] (capped at 1). *)

type trajectory = {
  times : float array;
  w : float array;
  alpha : float array;
  q : float array;
  p : float array;  (** Marking indicator over time. *)
}

val simulate : params -> ?dt:float -> t_end:float -> unit -> trajectory
(** Integrates with RK4 at step [dt] (default [r0 / 50]). *)

val queue_stats : trajectory -> discard:float -> float * float
(** [(mean, stddev)] of the queue after discarding the first [discard]
    seconds as transient. *)

val oscillation_amplitude : trajectory -> discard:float -> float
(** Half the peak-to-peak queue swing in the measurement window. *)
