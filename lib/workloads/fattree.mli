(** Datacenter fabric workload on the k-ary fat tree: per-rack incast
    plus cross-pod long flows, reported as FCT slowdown percentiles.

    Every rack's first host is an incast victim fed by [incast_fanin]
    short flows whose senders are drawn uniformly from the other racks;
    [long_flows] additional long flows each cross half the fabric
    (their destination sits [n_hosts/2] beyond their source, always a
    different pod). Flow starts are paced uniformly over
    [start_spread]. Total flows = [(k^2/2) * incast_fanin +
    long_flows] — at [k = 8] with [incast_fanin = 32] that is a
    1040-flow fabric over 128 hosts and 80 switches.

    Each flow's completion time is scored against the idle-network
    ideal (round-trip propagation over its 2/4/6-link path, whole-flow
    serialization at line rate, plus per-intermediate-hop
    store-and-forward of one segment; see {!Stats.Fct}); the result
    aggregates the slowdown distribution over all flows, with censored
    (incomplete at [time_cap]) flows scored at the cap. One seeded run,
    no repeats: with O(1000) flows the distribution itself is the
    ensemble. *)

type config = {
  k : int;  (** Fat-tree arity (even, >= 2). *)
  incast_fanin : int;  (** Short flows converging on each rack victim. *)
  incast_bytes : int;
  long_flows : int;
  long_bytes : int;
  rate_bps : float;  (** Every link's rate. *)
  link_delay : Engine.Time.span;  (** Per-traversal propagation. *)
  queue_bytes : int;  (** Per-switch-port queue capacity. *)
  segment_bytes : int;
  min_rto : Engine.Time.span;
  time_cap : Engine.Time.span;
  start_spread : Engine.Time.span;
  initial_cwnd : float;
  seed : int64;
}

val default_config : config
(** k = 4 (16 hosts, 20 switches), fanin 8 + 8 long flows = 72 flows,
    1 Gbps links, 5 us per-link delay, 10 ms min RTO. *)

type result = {
  slowdown_p50 : float;
  slowdown_p95 : float;
  slowdown_p99 : float;
  slowdown_p999 : float;
  slowdown_mean : float;
  slowdown_max : float;
  flows_total : int;
  timeouts : int;
  incomplete : int;  (** Flows still unfinished at [time_cap]. *)
  no_route_drops : int;
      (** Fabric-wide; nonzero means the topology is miswired. *)
}

val run : Workload.ctx -> Dctcp.Protocol.t -> config -> result
(** [ctx.on_sim] sees the fabric's one simulator. [ctx.tracer] reaches
    every switch (no-route drops) and every flow. [ctx.metrics]
    registers [engine.events_processed], the fabric-wide
    [switch.no_route_drops] probe and [sender.timeouts]. [ctx.buffer]
    applies to all three switch tiers (each switch gets its own pool
    under [Dynamic_threshold]).
    @raise Invalid_argument if [ctx.faults] is given — fault injection
    is not yet supported on the fabric — and, naming the field, before
    anything is simulated, for a non-positive [incast_fanin],
    [incast_bytes], [long_bytes] or [time_cap], or a negative
    [long_flows] or [start_spread]. *)
