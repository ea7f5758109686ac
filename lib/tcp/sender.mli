(** TCP sender: window-based transmission with NewReno-style loss recovery.

    The sender transmits fixed-size segments under a congestion window
    (counted in segments, floored at 1). Loss recovery is go-back-N by
    default, both on triple-dupack fast retransmit and on retransmission
    timeout (RFC 6298 timer with Karn's rule on RTT samples): without
    SACK, resending the whole window from the hole is the classic ARQ
    simplification; it wastes some retransmissions but leaves the
    congestion-window trajectory — what the experiments in this
    repository measure — identical. Enabling [config.sack] (with a
    SACK-enabled receiver) switches fast-retransmit recovery to selective
    hole repair. Window adjustment is delegated to a pluggable
    {!Cc.factory}. *)

type config = {
  segment_bytes : int;  (** Wire size of a data segment (default 1500). *)
  ack_bytes : int;  (** Wire size of an ACK (default 40). *)
  initial_cwnd : float;  (** Segments (default 2). *)
  initial_ssthresh : float;  (** Default: effectively unbounded. *)
  dupack_threshold : int;  (** Default 3. *)
  min_rto : Engine.Time.span;  (** Default 200 ms, as in the paper-era Linux. *)
  max_rto : Engine.Time.span;  (** Default 60 s. *)
  initial_rto : Engine.Time.span;  (** Default 1 s before any RTT sample. *)
  max_cwnd : float;  (** Cap in segments (default 1e9). *)
  ecn_capable : bool;  (** Send data as ECT (default true). *)
  sack : bool;
      (** Selective-acknowledgment recovery (default off): instead of
          go-back-N on fast retransmit, keep a scoreboard from the
          receiver's SACK blocks and retransmit only the holes, one per
          arriving ACK. The receiver must be created with [~sack:true]
          too. RTO recovery remains go-back-N. *)
}

val default_config : config

type t

val create :
  Engine.Sim.t ->
  host:Net.Host.t ->
  peer:int ->
  flow:int ->
  cc:Cc.factory ->
  ?tracer:Obs.Trace.t ->
  ?config:config ->
  ?limit_segments:int ->
  ?on_complete:(unit -> unit) ->
  unit ->
  t
(** Binds the flow's ACK handler on [host]. Without [limit_segments] the
    flow is long-lived (infinite backlog); with it, [on_complete] fires
    when the last segment is cumulatively acknowledged. Transmission starts
    only on {!start}. [tracer] (default {!Obs.Trace.null}) receives
    [Flow_start] / [Flow_done] / [Fast_retransmit] / [Rto] events with
    component ["flow<i>"], and is exposed to the congestion-control
    algorithm through {!Cc.flow_api}. *)

val start : t -> unit
(** Begins transmitting at the current simulation instant. *)

(** {2 Introspection} *)

val cwnd : t -> float (* dtlint: test-only: slow-start tests *)
val alpha : t -> float option
(** The congestion-control algorithm's congestion estimate, if any. *)

val completed : t -> bool
val completion_time : t -> Engine.Time.t option
val retransmissions : t -> int
val timeouts : t -> int
val fast_retransmits : t -> int
val ece_acks : t -> int
val srtt : t -> Engine.Time.span option (* dtlint: test-only: RTT tests *)

val close : t -> unit
(** Stops the timer and unbinds from the host. *)
