(** Streaming trace analytics — the paper's oscillation quantities,
    computed online and offline from the same code.

    An analyzer consumes {!Trace.record}s in time order and maintains,
    with no full-series buffer:

    - Welford mean/variance of bottleneck occupancy, resampled onto a
      uniform grid (zero-order hold between occupancy-carrying events);
    - a peak–trough cycle detector against the (K1, K2) hysteresis band,
      yielding oscillation amplitude and period (means, maxima, and
      log2-binned histograms);
    - the marking-flip rate from [Mark_state_flip] events;
    - a flow-synchronization index: the fraction of flows that suffered
      a [Cwnd_cut] within the same RTT window (the paper's
      synchronized-backoff signature);
    - a dominant-frequency estimate from bounded-lag online
      autocorrelation (512 grid samples of state, not the
      series), with {!Stats.Spectrum}'s FFT available offline as a
      cross-check.

    Everything the analyzer computes is a deterministic function of the
    record stream alone — no simulator clock, no wall clock — which is
    what makes the online path (analyzer teed into a live tracer) and
    the offline path ([dtsim analyze] replaying a JSONL file) produce
    {e bit-identical} analysis blocks. *)

type config = {
  sample_period : Engine.Time.span;
      (** Occupancy resampling grid period (also the spectral
          resolution: detectable periods are multiples of it). *)
  band_bytes : (int * int) option;
      (** Hysteresis band (low, high) in bytes — (K1, K2) for DT-DCTCP.
          Single-threshold protocols use a degenerate band widened by
          one segment either side of K; [None] (no marking threshold)
          disables the cycle detector. *)
  n_flows : int;
  rtt : Engine.Time.span;  (** Synchronization-index window length. *)
  segment_bytes : int;  (** For byte → packet conversions in output. *)
}

type t

val required_classes : Trace.cls list
(** The event classes the analyzer consumes. A trace file that filtered
    any of these out cannot reproduce the online analysis. *)

val create : ?on_sample:(float -> unit) -> config -> t
(** [on_sample] observes each grid sample (occupancy in bytes) as it is
    taken; it must not feed back into the analyzer. Used offline to
    collect the series for the FFT cross-check without giving the
    analyzer itself a buffer.
    @raise Invalid_argument if [sample_period <= 0], [n_flows <= 0],
    [rtt <= 0], [segment_bytes <= 0], or the band is inverted. *)

val feed : t -> Trace.record -> unit
(** Consume one record. Records must arrive in non-decreasing time
    order (the order any tracer emits them and any JSONL file stores
    them).
    @raise Invalid_argument if time goes backwards. *)

val tracer : t -> Trace.t
(** A tracer accepting exactly {!required_classes} that consumes what it
    receives as {!feed} would. Occupancy events emitted with
    {!Trace.emit_occ} reach the analyzer unboxed, with no record built;
    everything else goes through {!feed}. Tee it with a run's primary
    tracer to analyze online, or emit parsed file records through it to
    analyze offline — both paths then filter identically. *)

val finalize : t -> unit
(** Flush trailing grid samples and close the open synchronization
    window. Idempotent; {!to_json} and {!summary} call it. Feeding
    after finalization raises. *)

type summary = {
  records : int;
  duration_s : float;
  occ_mean_pkts : float;
  occ_std_pkts : float;
  cycles : int;
  amp_mean_pkts : float;  (** 0 when no complete cycle was seen. *)
  amp_max_pkts : float;
  period_mean_s : float;
  flip_rate_hz : float;
  sync_mean : float;  (** Mean over RTT windows with at least one cut. *)
  sync_max : float;
  dominant_freq_hz : float option;
}

val summary : t -> summary

val to_json : t -> Json.t
(** The [analysis] block: a deterministic JSON object (fixed field
    order, floats bit-exact) embedded into {!Manifest} by [Exp.Runner]
    and printed by [dtsim analyze]. *)

val spectrum_note : t -> string option
(** Why [dominant_freq_hz] is absent — ["series too short ..."],
    ["no variation ..."], ... — or [None] when a peak was found. *)

(** First record of a JSONL trace file: carries the analyzer config and
    the writing tracer's enabled classes, so [dtsim analyze] is
    self-contained. *)
module Header : sig
  type header = { config : config; classes : Trace.cls list }

  val is_header : Json.t -> bool
  (** Distinguishes a header object from an ordinary trace record. *)

  val to_json : header -> Json.t
  val of_json : Json.t -> (header, string) result
end
