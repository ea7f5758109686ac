(** Convergence and fairness under flow churn (extension; the "convergence
    test" of the original DCTCP paper).

    Flows join the bottleneck one at a time at a fixed interval, then
    leave in the same order, so the fair share steps down and back up.
    The runner samples every flow's goodput in fixed windows; the metrics
    are how quickly a newly joining flow reaches its fair share and how
    fair the allocation is while all flows are active. *)

type config = {
  n_flows : int;  (** Default 5. *)
  join_interval : Engine.Time.span;  (** Default 500 ms. *)
  hold : Engine.Time.span;
      (** Time with all flows active before departures begin (default
          500 ms). *)
  sample_window : Engine.Time.span;
      (** Goodput bins (default 10 ms); [run] rejects a non-positive
          width. *)
  bottleneck_rate_bps : float;  (** Default 1 Gbps. *)
  rtt : Engine.Time.span;
  buffer_bytes : int;
  segment_bytes : int;
  min_rto : Engine.Time.span;
  convergence_band : float;
      (** A flow has converged when its windowed goodput is within this
          fraction of the fair share (default 0.25). *)
  seed : int64;
}

val default_config : config

type result = {
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
    bottleneck port and wrapped around the marking policy; when absent
    no injector is constructed. [buffer]
    (default {!Net.Buffer_mgr.Static}) is the bottleneck switch's memory
    model. *)
