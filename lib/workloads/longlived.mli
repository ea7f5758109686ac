(** Long-lived flows over the dumbbell — the workload of the paper's
    Section VI-A (Figures 1, 10, 11, 12).

    [n] senders each run one infinite DCTCP/DT-DCTCP flow into the single
    10 Gbps bottleneck; after a warm-up the bottleneck queue's
    time-weighted mean and standard deviation, the flows' alpha estimates,
    and utilization are measured. *)

type config = {
  n_flows : int;
  bottleneck_rate_bps : float;  (** Default 10 Gbps. *)
  rtt : Engine.Time.span;  (** Two-way propagation, default 100 us. *)
  buffer_bytes : int;  (** Bottleneck buffer, default 1000 packets. *)
  segment_bytes : int;  (** Default 1500. *)
  warmup : Engine.Time.span;  (** Discarded, default 100 ms. *)
  measure : Engine.Time.span;
      (** Measured window, default 200 ms; [run] rejects a non-positive
          one. *)
  trace_sampling : Engine.Time.span option;
      (** Also record a sampled queue series (for Figure 1). *)
  alpha_sample_period : Engine.Time.span;
      (** Alpha is polled at every sender on this period (default 1 ms). *)
  stagger : Engine.Time.span;
      (** Each flow starts at a seed-determined uniform offset in
          [0, stagger] (default 1 ms), breaking perfect synchronization as
          distinct ns-2 start times do. *)
  min_rto : Engine.Time.span;  (** Default 10 ms (no Incast here). *)
  seed : int64;
}

val default_config : config

type result = {
  mean_queue_pkts : float;
  std_queue_pkts : float;
  max_queue_pkts : float;
  mean_alpha : float;  (** Averaged over flows and samples. *)
  throughput_bps : float;  (** Bottleneck departures over the window. *)
  utilization : float;
  marked_fraction : float;  (** Marked / enqueued during measurement. *)
  drops : int;
  timeouts : int;  (** Summed over flows. *)
  fast_retransmits : int;
  jain_fairness : float;
      (** Jain's index over per-flow segments delivered during the
          measured window. *)
  queue_series : (float * float) array option;
      (** (seconds, packets), present iff [trace_sampling] was set: the
          bottleneck occupancy sampled through {!Obs.Sampler} at the
          warm-up instant and every period after it, [measure / period + 1]
          samples in all. *)
}

val run :
  ?tracer:Obs.Trace.t -> ?metrics:Obs.Metrics.t -> ?faults:Fault.Plan.t ->
  ?buffer:Net.Buffer_mgr.config ->
  ?on_sim:(Engine.Sim.t -> unit) ->
  Dctcp.Protocol.t -> config -> result
(** [on_sim] is called with the freshly created simulator before any
    component is built — the hook the engine self-profiler attaches
    through. It must not schedule events.
    [tracer] (default {!Obs.Trace.null}) is attached to the bottleneck
    queue and every sender, and receives [Mark_state_flip] events
    (component ["bottleneck"]) whenever the protocol's marking policy has
    hysteresis state. When [metrics] is given, the scenario registers
    probes [marking.flips_up]/[.flips_down], [engine.events_processed],
    [engine.heap_high_water], and the summed [sender.*] counters on top
    of the per-queue probes from {!Net.Queue_disc.create}.
    When [faults] is given, a {!Fault.Injector} (seeded from
    [config.seed]) is attached to the bottleneck port and wrapped around
    the marking policy; when absent no injector is constructed and the
    run is bit-identical to one without fault support.
    [buffer] (default {!Net.Buffer_mgr.Static}) selects the bottleneck
    switch's memory model; under [Dynamic_threshold] the shared pool
    replaces [config.buffer_bytes]. *)
