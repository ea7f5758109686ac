(** Sweep executor: runs {!Spec} lists, optionally fanning runs across
    OCaml 5 domains.

    This module is the only sanctioned parallelism site in the tree
    (dtlint rule R8): scenarios and protocol code stay strictly
    deterministic single-domain programs, and the runner exploits the
    fact that distinct runs share no mutable simulation state. Results
    are always delivered in spec order, so for a fixed spec list the
    output array is bit-identical whatever [jobs] is. *)

type outcome = {
  spec : Spec.t;
  result : Outcome.t;
  manifest : Obs.Manifest.t;
      (** Carries the full spec under params key ["spec"], so
          [Spec.of_json] can reconstruct the exact scenario from the
          manifest alone. *)
}

val analysis_config : Spec.t -> Obs.Analyze.config option
(** The streaming-analysis configuration a dumbbell spec implies, for
    every schedule: the sampling period (the Longlived [trace_sampling],
    else 20 us), the protocol's marking band — (K1, K2) for DT-DCTCP, K
    widened by one segment either side for single-threshold protocols,
    none for the loss-based transports. Scaled protocols resolve their
    fractions against the steady-state effective limit: the configured
    capacity under [Static], the Dynamic-Threshold fixed point
    [alpha B / (1 + alpha f)] under a shared pool — and the flow count
    (the Dynamic schedule's background flows) and RTT for the
    synchronization index. [None] for the fan-in and fat-tree workloads,
    which the analyzer does not cover. [dtsim analyze] writes this same
    config into the trace header, which is what keeps online and offline
    analysis identical. *)

val run_one :
  ?tracer:Obs.Trace.t ->
  ?on_sim:(Engine.Sim.t -> unit) ->
  ?analyze:bool ->
  Spec.t ->
  outcome
(** Executes one spec with a fresh metrics registry, through the one
    {!Workloads.Workload.ctx} built here. A raising workload yields
    [result = Failed _] rather than an exception; the manifest is still
    produced. [tracer] (default {!Obs.Trace.null}) and [on_sim] (the
    self-profiler's attachment point, called with every simulator the
    run creates) reach every workload. [analyze] (default false) tees an
    {!Obs.Analyze} analyzer into the run's tracer, when the spec has an
    {!analysis_config}, and embeds its JSON block into the manifest;
    when false nothing is constructed and the manifest is byte-identical
    to pre-analysis builds. *)

val run : ?jobs:int -> ?analyze:bool -> Spec.t list -> outcome array
(** [run ~jobs specs] executes every spec and returns outcomes in spec
    order. [jobs = 1] (default) runs serially in the calling domain;
    otherwise [min jobs (length specs)] workers claim specs off a shared
    atomic counter. A failing run occupies its slot as [Failed] and
    never aborts the sweep. [analyze] is forwarded to {!run_one} for
    every spec (each worker builds its own analyzer, so sweeps stay
    data-race free).
    @raise Invalid_argument when [jobs < 1]. *)
