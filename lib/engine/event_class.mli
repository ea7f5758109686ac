(** Coarse taxonomy of scheduled events, for the self-profiler.

    Every event in the {!Event_queue} carries a class tag (stored as the
    class {e index}, an immediate int, so tagging costs nothing on the
    hot path). A registered action ({!Sim.action}) carries its class
    from the registration; one-shot scheduling sites that know what kind
    of work they enqueue pass the tag through {!Sim.schedule_at_cls} /
    {!Sim.schedule_after_cls}; everything else defaults to {!Other}. The profiler aggregates
    per-class execution counts and sampled wall-clock time, which is how
    "where does event time actually go" questions (ROADMAP item 3) get
    answered without a system profiler. *)

type t =
  | Other  (** Untagged: workload bookkeeping, measurement arming, ... *)
  | Timer  (** {!Timer} firings — RTO and protocol timers. *)
  | Link_tx  (** Port serialization complete (transmit side). *)
  | Link_rx  (** Propagation-delay delivery (receive side). *)
  | Sample  (** {!Obs.Sampler} periodic ticks. *)
  | Protocol  (** Transport control events (flow start, ...). *)
  | Fault  (** Fault-injection plan events (flaps, brownouts, jitter). *)

val count : int
(** Number of classes; valid indices are [0 .. count - 1]. *)

val index : t -> int
(** Stable dense index; {!Other} is 0 (the default tag). *)

val name : t -> string
(** Stable lowercase identifier, e.g. ["link_tx"]; used in profiler
    JSON output. *)

val all : t array
(** Every class, in index order. *)
