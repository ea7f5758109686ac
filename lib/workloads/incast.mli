(** Incast on the testbed star — the paper's Section VI-B-1 (Figure 14).

    The aggregator fans a query out to [n] synchronized senders (placed
    round-robin on the 9 workers), each responding with a fixed block
    (64 KB in the paper). All responses start simultaneously; the run's
    goodput is the total response volume divided by the time the last
    response completes. Throughput collapses once simultaneous arrivals
    overflow the shallow bottleneck buffer and some flow must wait out a
    200 ms minimum RTO. *)

type config = {
  n_flows : int;
  bytes_per_flow : int;  (** Default 64 KB. *)
  repeats : int;  (** Default 20. *)
  rate_bps : float;  (** Link rate, default 1 Gbps. *)
  buffer_bytes : int;  (** Bottleneck buffer, default 128 KB. *)
  leaf_buffer_bytes : int;  (** Default 512 KB. *)
  segment_bytes : int;  (** Default 1500. *)
  min_rto : Engine.Time.span;  (** Default 200 ms. *)
  time_cap : Engine.Time.span;
      (** Give up on a repeat after this long (default 10 s). *)
  start_jitter : Engine.Time.span;
      (** Each response starts uniformly within this window (default
          300 us), modelling the query fan-out serialization and host
          scheduling jitter of the physical testbed; 0 restores perfectly
          synchronized starts. *)
  initial_cwnd : float;  (** Sender initial window (default 2 segments). *)
  seed : int64;
}

val default_config : config

type result = {
  mean_goodput_bps : float;
  min_goodput_bps : float;
  max_goodput_bps : float;
  mean_completion : float;  (** Seconds, mean over repeats. *)
  p99_completion : float;
  timeouts_per_run : float;  (** RTO events averaged over repeats. *)
  incomplete : int;  (** Repeats that hit [time_cap]. *)
}

val run :
  ?faults:Fault.Plan.t ->
  ?buffer:Net.Buffer_mgr.config ->
  Dctcp.Protocol.t ->
  config ->
  result
(** When [faults] is given, each repeat attaches a {!Fault.Injector}
    (seeded from that repeat's seed) to the star's root-to-aggregator
    bottleneck; when absent no injector is constructed. [buffer] (default
    {!Net.Buffer_mgr.Static}) is the root switch's memory model. *)

val run_with_sack :
  ?faults:Fault.Plan.t ->
  ?buffer:Net.Buffer_mgr.config ->
  sack:bool ->
  Dctcp.Protocol.t ->
  config ->
  result
(** Like {!run} with selective-acknowledgment loss recovery toggled (the
    default {!run} uses go-back-N, matching the paper-era stacks). *)

val goodput_of_completion : config -> float -> float (* dtlint: test-only: pinned formula *)
(** [goodput_of_completion cfg t] is the goodput implied by finishing all
    responses in [t] seconds. *)
