(** Describing functions of the two marking mechanisms (paper Section IV-V).

    The describing function (DF) of a nonlinearity driven by [x = X sin wt]
    is [N(X) = (B1 + j A1) / X] where [A1], [B1] are the fundamental
    Fourier coefficients of the output (Eq. 5). For the marking mechanisms
    the output is the 0/1 marking indicator.

    - DCTCP's relay (Eq. 22):
      [N_dc(X) = 2/(pi X) sqrt(1 - (K/X)^2)] for [X >= K].
    - DT-DCTCP's hysteresis (Eq. 27): for [X >= K2 >= K1],
      [N_dt(X) = 1/(pi X) (sqrt(1-(K1/X)^2) + sqrt(1-(K2/X)^2))
                 + j (K2 - K1)/(pi X^2)].

    Below the paper's validity range we extend piecewise to match the
    implemented policy ({!Dctcp.Marking_policies.double_threshold}): for
    [K1 <= X < K2] a swing turns around inside the band, so the mechanism
    acts as a relay at [K1]; below the lowest threshold nothing marks and
    the DF is zero.

    The relative DFs factor out the characteristic parameter [K0]
    (Eq. 8-9): [N = K0 N0] with [K0 = 1/K] (DCTCP) or [1/K2] (DT-DCTCP). *)

val relay : k:float -> x:float -> Cplx.t
(** [N_dc(X)]; zero for [x < k]. @raise Invalid_argument if [k <= 0] or
    [x <= 0]. *)

val hysteresis : k1:float -> k2:float -> x:float -> Cplx.t
(** [N_dt(X)] with the piecewise extension above. Requires [0 < k1 <= k2]. *)

val relay_relative : k:float -> x:float -> Cplx.t (* dtlint: test-only: Eq. 23 *)
(** Eq. 23: [N0_dc = K * N_dc]; its [1/pi] peak at [X = K sqrt 2] is
    Theorem 1's [max(-1/N0_dc) = -pi] bound. *)

val hysteresis_relative : k1:float -> k2:float -> x:float -> Cplx.t
(** Eq. 28: [N0_dt = K2 * N_dt]. *)

val neg_recip : Cplx.t -> Cplx.t
(** [-1/N]; [infinity + 0j]-free: returns a non-finite complex if [N] is
    zero (callers filter with {!Cplx.is_finite}). *)


(** {2 Numerical cross-checks} *)

val relay_indicator : k:float -> x:float -> theta:float -> bool
(** Marking indicator of the ideal relay at phase [theta] of the sine. *)

val hysteresis_indicator :
  k1:float -> k2:float -> x:float -> theta:float -> bool
(** Ideal hysteresis indicator (marking from the K1 up-crossing to the K2
    down-crossing; relay at K1 when the swing stays below K2). *)

val fundamental_of_indicator : (float -> bool) -> x:float -> n:int -> Cplx.t
(** Numerically integrates the fundamental Fourier coefficients of an
    indicator sampled at [n] midpoints of [0, 2pi) and returns
    [(B1 + j A1)/X] — should agree with the closed forms (property
    tested). *)
