(** The dumbbell: senders share one bottleneck toward a single receiver
    ({!Net.Topology.dumbbell}) under one of three flow schedules, all
    built by one set-up: the simulator, the bottleneck's marking behind
    the hysteresis-flip observer and the fault injector, the topology,
    and one TCP configuration for every flow. *)

type longlived = {
  n_flows : int;  (** Default 10. *)
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
}

type dynamic = {
  background_flows : int;  (** Default 2. *)
  short_senders : int;  (** Source pool for short flows (default 32). *)
  arrival_rate : float;  (** Short flows per second (default 5000). *)
  short_flow_segments : int;  (** Default 14 (~21 KB). *)
  duration : Engine.Time.span;  (** Arrival window (default 200 ms). *)
  warmup : Engine.Time.span;  (** Background-only warmup (default 50 ms). *)
  drain : Engine.Time.span;
      (** Extra time after the last arrival for stragglers (default
          100 ms). *)
}

type convergence = {
  n_flows : int;  (** Default 5. *)
  join_interval : Engine.Time.span;  (** Default 500 ms. *)
  hold : Engine.Time.span;
      (** Time with all flows active before departures begin (default
          500 ms). *)
  sample_window : Engine.Time.span;
      (** Goodput bins (default 10 ms); [run] rejects a non-positive
          width. *)
  convergence_band : float;
      (** A flow has converged when its windowed goodput is within this
          fraction of the fair share (default 0.25). *)
}

type schedule =
  | Longlived of longlived
      (** The paper's Section VI-A (Figures 1, 10, 11, 12): infinite
          flows, one per sender, started at seed-determined offsets;
          after a warm-up, the bottleneck queue's time-weighted moments,
          the flows' alpha and utilization are measured. *)
  | Dynamic of dynamic
      (** Queue build-up (extension; the original DCTCP paper's
          micro-benchmark, which Section II invokes): background flows
          keep the bottleneck busy while short flows arrive as a Poisson
          process from a pool of extra senders; a transport that parks
          a standing queue (Reno) inflates their completion times. *)
  | Convergence of convergence
      (** Convergence under churn (extension; the original DCTCP paper's
          convergence test): flows join one at a time at a fixed
          interval, then leave in the same order; every flow's goodput
          is sampled in fixed windows. *)

type config = {
  bottleneck_rate_bps : float;
  rtt : Engine.Time.span;  (** Two-way propagation. *)
  buffer_bytes : int;  (** Bottleneck buffer. *)
  segment_bytes : int;
  min_rto : Engine.Time.span;
  seed : int64;
  schedule : schedule;
}

val longlived : longlived
(** The Longlived schedule's defaults, as documented on its fields. *)

val dynamic : dynamic
val convergence : convergence

val default_config : schedule -> config
(** [schedule] on the default link: 10 Gbps, 100 us, a 1000-packet
    buffer, 1500-byte segments, 10 ms min RTO (no Incast here), seed 1.
    A Convergence schedule runs at 1 Gbps over a 500-packet buffer. *)

type queue = {
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

type fct = {
  short_flows_started : int;
  short_flows_completed : int;
  fct_mean_s : float;  (** Short-flow completion time statistics. *)
  fct_p50_s : float;
  fct_p99_s : float;
  fct_max_s : float;
  background_throughput_bps : float;
      (** Aggregate background goodput from the warm-up to the end. *)
  mean_queue_pkts : float;
  std_queue_pkts : float;
}

type shares = {
  shares : float array array;
      (** [shares.(w).(i)]: flow [i]'s goodput (bps) in window [w]. *)
  window_s : float;  (** Width of each window, seconds. *)
  convergence_times_s : float array;
      (** Per flow: seconds from its join until windowed goodput first
          stays within the convergence band of the then-current fair
          share for three consecutive windows; [nan] if never. *)
  jain_steady : float;
      (** Jain index over per-flow goodput while all flows are active. *)
  utilization_steady : float;
}

type result =
  | Queue of queue  (** A Longlived run. *)
  | Fct of fct  (** A Dynamic run. *)
  | Shares of shares  (** A Convergence run. *)

val run : Workload.ctx -> Dctcp.Protocol.t -> config -> result
(** [ctx.tracer] is attached to the bottleneck queue and every flow, and
    receives [Mark_state_flip] events (component ["bottleneck"]) whenever
    the protocol's marking policy has hysteresis state. [ctx.metrics]
    receives the engine counters ({!Workload.watch}), the bottleneck
    queue's probes ({!Net.Queue_disc.create}), [marking.flips_up] /
    [.flips_down] and the [sender.*] counters summed over every flow the
    run created. [ctx.faults] attaches a {!Fault.Injector} (seeded from
    [config.seed]) to the bottleneck port and wraps the marking policy.
    Under a [Dynamic_threshold] [ctx.buffer] the shared pool replaces
    [buffer_bytes].
    @raise Invalid_argument naming the field, before anything is
    simulated, for a non-positive flow count, sender pool, arrival rate,
    [measure], sampling period or [sample_window]. *)
