(** Spectral analysis of evenly-sampled series.

    Used to extract the dominant oscillation frequency of a queue trace so
    the packet simulator's limit cycle can be compared against the
    describing-function prediction (which yields an angular frequency). *)

val fft : Complex.t array -> Complex.t array (* dtlint: test-only: DFT identities *)
(** In-order radix-2 Cooley-Tukey FFT.
    @raise Invalid_argument if the length is not a power of two. *)

type peak = {
  frequency_hz : float;
  power : float;
  total_power : float;
}

(** Why a series does (or does not) yield a dominant frequency — the
    diagnostic [dtsim analyze] surfaces instead of a silent [None]. *)
type verdict =
  | Peak of peak
  | Too_short of { samples : int; needed : int }
  | No_variation of { samples : int }  (** Zero total spectral power. *)

val analyze : samples:float array -> sample_rate_hz:float -> verdict
(** The strongest non-DC spectral peak, or the specific reason there is
    none. *)

val verdict_note : verdict -> string option
(** Human-readable explanation for the two no-peak verdicts; [None] for
    [Peak]. *)

val dominant_frequency :
  samples:float array -> sample_rate_hz:float -> peak option
(** [analyze] with both failure verdicts collapsed to [None]. *)
