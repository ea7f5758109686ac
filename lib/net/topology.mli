(** Topology builders.

    These wire hosts, switches and ports into the two networks the paper
    evaluates on: the ns-2 style dumbbell (N senders, one bottleneck, one
    receiver) and the 1 Gbps NetFPGA testbed star (a root switch feeding an
    aggregator host, with leaf switches feeding workers).

    Host ids are assigned densely from 0 by each builder; the receiver /
    aggregator always gets the highest id. *)

(** {2 Dumbbell (paper Section VI-A)} *)

type dumbbell = {
  senders : Host.t array;
  receiver : Host.t;
  switch : Switch.t;
  bottleneck : Port.t;
      (** The switch-to-receiver port; its queue is "the" queue under
          study. *)
}

val dumbbell :
  Engine.Sim.t ->
  n_senders:int ->
  bottleneck_rate_bps:float ->
  ?access_rate_bps:float ->
  rtt:Engine.Time.span ->
  buffer_bytes:int ->
  ?buffer:Buffer_mgr.config ->
  marking:Marking.t ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  dumbbell
(** N senders share one bottleneck toward a single receiver. [rtt] is the
    two-way propagation delay (split equally across the four link
    traversals); serialization adds on top. [access_rate_bps] defaults to
    the bottleneck rate. [tracer] / [metrics] instrument the bottleneck
    queue only. [buffer] (default [Static]) is the switch's memory
    model: under [Dynamic_threshold] every switch port — the bottleneck
    and the reverse ACK-path queues — draws from one shared pool and
    [buffer_bytes] is ignored. *)

(** {2 Star testbed (paper Section VI-B, Figure 13)} *)

type star = {
  aggregator : Host.t;
  workers : Host.t array;
  root : Switch.t;
  leaves : Switch.t array;
  star_bottleneck : Port.t;  (** Root-to-aggregator port. *)
}

val star_testbed :
  Engine.Sim.t ->
  rate_bps:float ->
  bottleneck_buffer:int ->
  ?leaf_buffer:int ->
  ?buffer:Buffer_mgr.config ->
  marking:Marking.t ->
  unit ->
  star
(** The testbed: 3 leaf switches with 3 workers each, all joined at a
    root switch that also hosts the aggregator. All links run at
    [rate_bps] (1 Gbps in the paper) with 25 us propagation per
    traversal. Only the root-to-aggregator port carries the
    marking policy and the small [bottleneck_buffer] (128 KB in the
    paper); leaf buffers default to 512 KB drop-tail. [buffer] (default
    [Static]) is the root switch's memory model; leaves stay Static. *)

(** {2 Fat tree (k-ary, 3-tier)} *)

type fat_tree = {
  k : int;
  hosts : Host.t array;  (** [k^3/4] hosts; host [h] sits in rack
                             [h / (k/2)] and pod [h / (k^2/4)]. *)
  edges : Switch.t array;  (** [k^2/2] edge (top-of-rack) switches;
                               pod [p] owns indices [p*(k/2) ..]. *)
  aggs : Switch.t array;  (** [k^2/2] aggregation switches, same pod
                              layout as [edges]. *)
  cores : Switch.t array;  (** [(k/2)^2] core switches. *)
}

val fat_tree :
  Engine.Sim.t ->
  k:int ->
  ?rate_bps:float ->
  ?link_delay:Engine.Time.span ->
  ?queue_bytes:int ->
  ?buffer:Buffer_mgr.config ->
  marking:(unit -> Marking.t) ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  fat_tree
(** Standard k-ary fat tree (k even, >= 2): k pods of k/2 edge and k/2
    aggregation switches, (k/2)^2 cores, k/2 hosts per edge switch —
    k^3/4 hosts and 5k^2/4 switches in all. Every link runs at
    [rate_bps] (default 1 Gbps) with [link_delay] propagation per
    traversal (default 5 us); every switch queue gets [queue_bytes]
    capacity (default {!default_access_buffer}) and a fresh [marking ()]
    policy. Downward routes (core -> agg -> edge -> host) are
    deterministic single ports; upward routes are per-switch ECMP
    groups over the k/2 uplinks, salted from the sim's Rng stream in a
    fixed order, so all path decisions are a pure function of the sim
    seed (see DESIGN §15). [buffer] (default [Static]) is every switch's
    memory model — [Dynamic_threshold] gives {e each} switch its own
    shared pool. [tracer] / [metrics] reach every switch (no-route drop
    instrumentation), not the queues. *)
