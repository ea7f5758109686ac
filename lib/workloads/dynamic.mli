(** Queue buildup under mixed traffic (extension; the "queue buildup"
    micro-benchmark of the original DCTCP paper, which Section II invokes
    as motivation).

    A few long-lived background flows keep the bottleneck busy while short
    request-sized flows arrive as a Poisson process from a pool of extra
    senders. The figure of merit is the short flows' completion-time
    distribution: a transport that parks a standing queue at the
    bottleneck (Reno) inflates every short flow's latency; DCTCP-family
    transports keep the queue at the marking threshold. *)

type config = {
  background_flows : int;  (** Default 2. *)
  short_senders : int;  (** Source pool for short flows (default 32). *)
  arrival_rate : float;  (** Short flows per second (default 5000). *)
  short_flow_segments : int;  (** Default 14 (~21 KB). *)
  duration : Engine.Time.span;  (** Measurement window (default 200 ms). *)
  warmup : Engine.Time.span;  (** Background-only warmup (default 50 ms). *)
  drain : Engine.Time.span;
      (** Extra time after the last arrival for stragglers (default
          100 ms). *)
  bottleneck_rate_bps : float;  (** Default 10 Gbps. *)
  rtt : Engine.Time.span;  (** Default 100 us. *)
  buffer_bytes : int;  (** Default 1000 packets. *)
  segment_bytes : int;
  min_rto : Engine.Time.span;
  seed : int64;
}

val default_config : config

type result = {
  short_flows_started : int;
  short_flows_completed : int;
  fct_mean_s : float;  (** Short-flow completion time statistics. *)
  fct_p50_s : float;
  fct_p99_s : float;
  fct_max_s : float;
  background_throughput_bps : float;
      (** Aggregate background goodput over the window. *)
  mean_queue_pkts : float;
  std_queue_pkts : float;
}

val run :
  ?metrics:Obs.Metrics.t ->
  ?faults:Fault.Plan.t ->
  ?buffer:Net.Buffer_mgr.config ->
  Dctcp.Protocol.t ->
  config ->
  result
(** [metrics] receives the engine counters
    ({!Workload.engine_probes}). When [faults] is given, a
    {!Fault.Injector} (seeded from [config.seed]) is attached to the
    bottleneck port and wrapped around the marking policy — the same
    discipline as {!Longlived.run}; when
    absent no injector is constructed. [buffer] (default
    {!Net.Buffer_mgr.Static}) is the bottleneck switch's memory model. *)
