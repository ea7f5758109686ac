(** Star fan-in: [n] synchronized responses converge on the aggregator of
    the testbed star — one experiment behind three scenarios.

    - {b Incast} (the paper's Section VI-B-1, Figure 14): each of [n]
      senders (placed round-robin on the 9 workers) answers with a fixed
      block (64 KB in the paper); the figure of merit is goodput, the
      total response volume over the time the last response completes.
      Throughput collapses once simultaneous arrivals overflow the
      shallow bottleneck buffer and some flow must wait out a 200 ms
      minimum RTO.
    - {b Completion} (Section VI-B-2, Figure 15): a fixed total (1 MB in
      the paper) split evenly over the [n] senders; the figure of merit
      is the query completion time. With a 1 Gbps bottleneck the floor
      is ~10 ms for 1 MB; once Incast timeouts begin, the mean jumps
      roughly 20x.
    - {b Deadline} (extension, not in the reproduced paper; the
      OLDI-style workload D2TCP targets): every response carries its own
      completion deadline, drawn uniformly from
      [[base, base + spread]] after its start, so near- and far-deadline
      flows coexist; the figure of merit is the fraction of deadlines
      met.

    The scenario is read off the config ({!kind}): a deadline makes it
    Deadline, otherwise a [Total] volume makes it Completion, otherwise
    it is Incast. Every repeat builds a fresh star on its own seed
    (base seed plus a per-scenario stride). *)

type bytes =
  | Per_flow of int  (** Every response carries this many bytes. *)
  | Total of int
      (** The responses split this total evenly, rounded up per flow. *)

type deadline = {
  base : Engine.Time.span;  (** Deadline after the flow's start. *)
  spread : Engine.Time.span;  (** Uniform extra slack on top of [base]. *)
  aware : bool;
      (** Senders run deadline-aware {!Dctcp.D2tcp_cc} instead of the
          protocol's own controller. *)
}

type config = {
  n_flows : int;
  bytes : bytes;
  deadline : deadline option;  (** [None]: responses have no deadline. *)
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
  sack : bool;
      (** Selective-acknowledgment loss recovery (default off: go-back-N,
          matching the paper-era stacks). *)
  seed : int64;
}

type kind = Incast | Completion | Deadline

val kind : config -> kind

val default_config : kind -> config
(** The shared defaults above, with 64 KB per flow and no deadline
    (Incast), a 1 MB total (Completion), or 64 KB per flow with
    deadlines uniform in [[20 ms, 40 ms]] and plain senders
    (Deadline). *)

val per_flow_bytes : config -> int
(** Each response's size: [Per_flow b] is [b]; [Total t] is [t / n]
    rounded up. *)

type goodput = {
  mean_goodput_bps : float;
  min_goodput_bps : float;
  max_goodput_bps : float;
  mean_completion : float;  (** Seconds, mean over repeats. *)
  p99_completion : float;
  timeouts_per_run : float;  (** RTO events averaged over repeats. *)
  incomplete : int;  (** Repeats that hit [time_cap]. *)
}

type completion_time = {
  mean_completion_s : float;
  min_completion_s : float;
  max_completion_s : float;
  p99_completion_s : float;
  stddev_completion_s : float;
  timeouts_per_run : float;
  incomplete : int;  (** Repeats that hit [time_cap]. *)
}

type deadlines_met = {
  met_fraction : float;  (** Flows finishing before their deadline. *)
  mean_completion_s : float;  (** Over all flows and repeats. *)
  p99_completion_s : float;
  timeouts_per_run : float;
  incomplete : int;  (** Flows still unfinished at [time_cap]. *)
}

type result =
  | Goodput of goodput  (** An Incast run. *)
  | Completion_time of completion_time  (** A Completion run. *)
  | Deadlines_met of deadlines_met  (** A Deadline run. *)

val run :
  ?faults:Fault.Plan.t ->
  ?buffer:Net.Buffer_mgr.config ->
  Dctcp.Protocol.t ->
  config ->
  result
(** When [faults] is given, each repeat attaches a {!Fault.Injector}
    (seeded from that repeat's seed) to the star's root-to-aggregator
    bottleneck; when absent no injector is constructed. [buffer] (default
    {!Net.Buffer_mgr.Static}) is the root switch's memory model.
    @raise Invalid_argument naming the field, before anything is
    simulated, for non-positive flows, repeats, segment size, byte
    volume or [time_cap], or a negative [start_jitter] or deadline. *)

val goodput_of_completion : config -> float -> float (* dtlint: test-only: pinned formula *)
(** [goodput_of_completion cfg t] is the goodput implied by finishing all
    responses in [t] seconds. *)
