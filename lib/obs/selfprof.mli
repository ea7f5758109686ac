(** Sampled per-event-class engine self-profiler.

    Attaches to {!Engine.Sim}'s profiler hooks and maintains, per
    {!Engine.Event_class}:

    - an exact count of every executed event (two array stores per
      event — cheap enough to leave on for a whole run);
    - wall-clock durations of a 1-in-[sample_every] subset (sum, count,
      and a log2-binned nanosecond histogram). Timing is sampled because
      {!Profile.wall_clock} has microsecond resolution — most events
      execute faster than one tick, so per-event timing would measure
      mostly clock noise while doubling the hook cost.

    When no profiler is attached the engine's dispatch loop takes a
    single predicted-false branch per event ({!Engine.Sim.set_profiler});
    the whole subsystem costs nothing on an unprofiled run and is
    allocation-free either way.

    Counts are deterministic (a property the tests pin against trace
    event counts); durations are wall-clock and therefore not — profiles
    belong in perf reports, never in manifests. *)

type t

val create : ?sample_every:int -> unit -> t
(** [sample_every] (default 32): time one event in this many.
    @raise Invalid_argument if [sample_every <= 0]. *)

val attach : t -> Engine.Sim.t -> unit
(** Install this profiler's hooks on [sim]. One profiler can observe
    several sims sequentially; counts accumulate. *)

val total : t -> int
(** Events observed across all classes. *)

val count : t -> Engine.Event_class.t -> int

val mean_us : t -> Engine.Event_class.t -> float
(** Mean wall-clock microseconds over this class's timed sample; [0.]
    when nothing of the class was sampled. Wall-clock, so not
    deterministic — report material, never manifest material. *)

val sampled_total : t -> int
(** Events that were wall-clock timed. *)

val to_json : t -> Json.t
(** [{sample_every, events_total, events_sampled, classes: [{class,
    count, sampled, time_s, mean_us, hist_ns_log2}, ...]}] with one
    entry per class in {!Engine.Event_class.all} order. *)
