(** The linearized DCTCP plant (paper Section V-A).

    The fluid model (Eqs. 1-3) linearized about its operating point yields
    the blocks of Figure 5 (Eqs. 13-15); their product with the feedback
    sign gives the plant [P(s)] (Eq. 17) and, adding the round-trip delay,
    the open-loop frequency response [G(jw)] (Eq. 18):

    {v
                sqrt(C/2NR0) (2g/R0 + jw) N/R0 e^{-jw R0}
    G(jw) = -------------------------------------------------
            (jw + g/R0) (jw + N/(R0^2 C)) (jw + 1/R0)
    v}

    Units: [c] in packets/second, [r0] in seconds, [n] dimensionless flows,
    [g] the DCTCP gain. *)

type params = {
  c : float;  (** Bottleneck capacity, packets/second. *)
  n : int;  (** Number of long-lived flows. *)
  r0 : float;  (** Round-trip time, seconds. *)
  g : float;  (** DCTCP EWMA gain. *)
}

val params : c:float -> n:int -> r0:float -> g:float -> params
(** @raise Invalid_argument on non-positive [c], [n], [r0], or [g] outside
    (0, 1]. *)

val paper_params : ?n:int -> unit -> params
(** The configuration of the paper's Section V-D: C = 10 Gbps of 1500-byte
    packets (833,333 pkt/s), R0 = 100 us, g = 1/16, [n] defaulting to 10. *)

(** {2 Operating point (the fluid model's equilibrium)} *)

val w0 : params -> float
(** Per-flow window at equilibrium, [R0 * C / N] packets. *)

val alpha0 : params -> float
(** Equilibrium marking estimate, [sqrt (2 / W0)]. *)

(** {2 Blocks of Figure 5} *)

val p_alpha : params -> Cplx.t -> Cplx.t (* dtlint: test-only: Eq. 13 *)
(** Eq. 13, evaluated at [s]. *)

val p_queue : params -> Cplx.t -> Cplx.t (* dtlint: test-only: Eq. 14 *)
(** Eq. 14. *)

val p : params -> Cplx.t -> Cplx.t (* dtlint: test-only: Eq. 16/17 *)
(** Eq. 16/17: [- p_alpha * p_dctcp * p_queue], with [p_dctcp] Eq. 15.
    The blocks are exported so the tests can pin their DC gains and the
    product against the closed form of Eq. 17. *)

val g_jw : params -> float -> Cplx.t
(** Eq. 18: [p] at [s = jw] with the [e^{-jw R0}] delay factor. *)
