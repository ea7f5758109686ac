(** Nyquist-plane machinery: locus sampling and curve intersection.

    The stability question of Section V reduces to whether the open-loop
    locus [K0 G(jw)] intersects the negative-reciprocal-DF locus
    [-1/N0(X)] (Eq. 9, Figure 9). Both curves are sampled as polylines
    tagged with their parameter value, and intersections are found by
    exact segment-segment tests with linear parameter interpolation. *)

type point = { param : float; z : Cplx.t }
(** A locus sample: the parameter ([w] for the plant, [X] for a DF) and
    its position. *)

val log_space : lo:float -> hi:float -> n:int -> float array
(** [n] logarithmically spaced values over [lo, hi] (both > 0). *)

val plant_locus : Plant.params -> k0:float -> w:float array -> point array
(** Samples [K0 G(jw)]. *)

val hysteresis_neg_recip_locus :
  k1:float -> k2:float -> x:float array -> point array
(** Samples [-1/N0_dt(X)]; amplitudes with zero DF are skipped. *)

type crossing = {
  z : Cplx.t;  (** Intersection point. *)
  param_a : float;  (** Interpolated parameter on the first curve. *)
  param_b : float;  (** Interpolated parameter on the second curve. *)
}

val segment_intersection : (* dtlint: test-only: parallel/touching cases *)
  Cplx.t -> Cplx.t -> Cplx.t -> Cplx.t -> (Cplx.t * float * float) option
(** [segment_intersection p0 p1 q0 q1] is the proper intersection of the
    two closed segments with the fractional positions along each, if any
    (parallel/collinear overlaps count as no proper intersection). *)

val intersections : point array -> point array -> crossing list
(** All intersections of two polylines, with interpolated parameters,
    ordered along the first curve. *)

val real_axis_crossings : point array -> (float * float) list
(** Points where a locus crosses the real axis, as
    [(interpolated param, real coordinate)] pairs, in curve order. Used
    for Theorem 1, where [-1/N0_dc] lives on the real axis. *)
