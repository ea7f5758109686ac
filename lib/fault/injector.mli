(** Compiles a {!Plan} into scheduled simulator events and per-packet
    hooks on one link.

    The injector owns a dedicated [Engine.Rng] stream derived from the
    spec seed ([seed XOR 'FAULT']), so fault randomness (loss coin
    flips, jitter draws, probabilistic mark suppression) is bit-stable
    across repeats and [-j] levels and never perturbs the workload's own
    stream. Determinism contract: a given (plan, seed, scenario) triple
    always injects the identical fault sequence; with {!Plan.none}
    nothing is scheduled or hooked at all.

    Typed [Obs.Trace] events ([Link_down] / [Link_up] / [Pkt_lost] /
    [Mark_suppressed] / [Rate_changed]) are emitted as faults fire, and
    [fault.*] counter probes are registered when [metrics] is given. *)

val install :
  Engine.Sim.t ->
  Plan.t option ->
  seed:int64 ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  component:string ->
  Net.Marking.t ->
  Net.Marking.t * (Net.Port.t -> unit)
(** [install sim faults ~seed ~component marking] is the one way a
    scenario takes faults: it returns the marking policy to build the
    bottleneck with and the function that attaches the plan to the
    bottleneck port once the topology exists.

    With [None] no injector is constructed: [marking] comes back as is
    and attaching does nothing, so the run is event-for-event the one
    the scenario produced before fault injection existed.

    With [Some plan]: [seed] is the scenario's spec seed (the injector
    derives its own stream from it), [component] labels trace events,
    and the [fault.*] counters become probes of [metrics]. The marking
    gets the plan's ECN-mark suppression; attaching schedules the plan's
    flaps and rate changes against the port (spans relative to the
    current instant, normally simulation start) and installs the
    loss/jitter delivery hook if either channel is enabled. Attach once,
    on the scenario's bottleneck port.
    @raise Invalid_argument if {!Plan.validate} rejects the plan. *)
