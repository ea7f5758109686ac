(** What every workload's [run] shares: its run context, and helpers.

    Each workload module pairs a plain-record [config] (with complete
    defaults) with a [result], and runs through
    [run : ctx -> Dctcp.Protocol.t -> config -> result]. The context
    carries everything a run is observed, faulted and buffered with, so
    [Exp.Runner] builds it once and calls every workload the same way. *)

type ctx = {
  tracer : Obs.Trace.t;
      (** Reaches what the workload instruments and every TCP flow. *)
  metrics : Obs.Metrics.t option;  (** [None] registers nothing. *)
  faults : Fault.Plan.t option;
      (** For the bottleneck port ({!Fault.Injector.install}). *)
  buffer : Net.Buffer_mgr.config;  (** The bottleneck switch's memory. *)
  on_sim : Engine.Sim.t -> unit;
      (** Called with every simulator the run creates, before any
          component is built: the engine self-profiler's hook. It must
          not schedule events. *)
}

val bare : ctx
(** No tracing, no metrics, no faults, a [Static] buffer and no
    [on_sim]: a run as plain as the workload allows. *)

val watch : ctx -> Engine.Sim.t -> unit
(** [watch ctx] registers [engine.events_processed] and
    [engine.heap_high_water] with [ctx.metrics] and returns the function
    each simulation of the run is handed to once, when it is created: it
    sums the events over every simulation handed over, keeps the largest
    high water and calls [ctx.on_sim]. Every workload's [run] but the
    fat tree's (which registers the event count alone) uses it. *)

val sum_senders : (Tcp.Sender.t -> int) -> Tcp.Flow.t array -> int
(** [sum_senders counter flows] adds [counter] up over the flows'
    senders. *)

val require_positive : scenario:string -> what:string -> int -> unit
(** [require_positive ~scenario ~what n] rejects non-positive scenario
    sizes with a uniform message.
    @raise Invalid_argument if [n <= 0]. *)

val require_non_negative : scenario:string -> what:string -> int -> unit
(** Like {!require_positive} for values that may be zero.
    @raise Invalid_argument if [n < 0]. *)

val repeat_seed : base:int64 -> stride:int -> int -> int64
(** Seed for repeat [r] of a multi-repeat workload: [base + r * stride].
    Strides are distinct per workload so repeats never share an RNG
    stream across workload families. *)

val run_slices :
  Engine.Sim.t -> cap:Engine.Time.t -> pending:(unit -> bool) -> unit
(** Advance [sim] in 5 ms steps until [pending] reports completion or the
    clock reaches [cap] — the "stop as soon as the query is answered"
    loop of the fan-in and fat-tree workloads. *)
