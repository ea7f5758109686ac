(** Pluggable congestion control.

    A congestion-control algorithm is a per-flow stateful value built from a
    {!factory}. The sender gives the factory a {!flow_api} through which the
    algorithm reads and writes [cwnd]/[ssthresh] (the sender clamps [cwnd]
    to at least one segment), then notifies it of protocol events:

    - {!t.on_ack} for {e every} ACK (new or duplicate) with the echoed ECE
      bit — DCTCP's alpha estimator needs the per-ACK stream;
    - {!t.on_fast_retransmit} when a triple-dupack retransmission fires;
    - {!t.on_timeout} when the RTO fires.

    Baselines [reno] and [ecn_reno] live here; the DCTCP algorithm is in
    [lib/dctcp] (the layer under study). *)

type flow_api = {
  now : unit -> Engine.Time.t;
  flow : int;  (** Flow id, for trace records. *)
  tracer : Obs.Trace.t;
      (** The sender's tracer ({!Obs.Trace.null} when untraced), so
          algorithms can emit events such as [Cwnd_cut]. *)
  get_cwnd : unit -> float;  (** In segments. *)
  set_cwnd : float -> unit;  (** Clamped to >= 1 segment by the sender. *)
  get_ssthresh : unit -> float;
  set_ssthresh : float -> unit;
}

type t = {
  on_ack : newly_acked:int -> ece:bool -> snd_una:int -> snd_nxt:int -> unit;
      (** [newly_acked] is 0 for duplicate ACKs. [snd_una] is the value
          after the ACK was applied; sequence numbers let window-grained
          algorithms delimit RTT epochs. *)
  on_fast_retransmit : unit -> unit;
  on_timeout : unit -> unit;
  alpha : float array;
      (** DCTCP-style congestion-extent estimate, for instrumentation:
          the algorithm's own one-slot array, so slot 0 always holds the
          current value, or [[||]] if it keeps none (Reno). Read it;
          never write it. Sampling it allocates nothing. *)
}

type factory = flow_api -> t

(** {2 Reno window arithmetic}

    Shared by every algorithm here and in [lib/dctcp]. *)

val grow : flow_api -> int -> unit
(** [grow api newly_acked]: slow start below [ssthresh] (+1 per
    segment acked), congestion avoidance above it (+1/cwnd per segment
    acked); nothing on a duplicate ACK ([newly_acked = 0]). *)

val set_window : flow_api -> float -> unit
(** [set_window api w] sets [cwnd] and [ssthresh] both to [w]. A window
    decision that feeds both setters goes through here, so its value is
    boxed once, not once per setter. *)

val halve_on_loss : flow_api -> unit
(** [ssthresh] and [cwnd] both to half the window, at least 1. *)

val collapse_on_timeout : flow_api -> unit
(** [ssthresh] to half the window (at least 1), [cwnd] to 1. *)

val reno : factory
(** NewReno-style growth: slow start below [ssthresh], +1/cwnd per ACK
    above; halve on fast retransmit; collapse to 1 on timeout. Ignores
    ECE. *)

val ecn_reno : factory
(** {!reno} plus classic ECN (RFC 3168) reaction: on an ECE ACK, halve the
    window, at most once per window of data. *)
