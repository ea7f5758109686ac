(** Discrete-event simulator core.

    A simulator owns a virtual clock and an event queue. Events scheduled
    for the same instant run in scheduling order (FIFO), which makes runs
    fully deterministic for a given seed. *)

type t

type event_id = Event_queue.id
(** Handle to a scheduled event, used for cancellation. Immediate (an
    int carrying a pool-slot/generation pair), so scheduling never
    allocates a handle. *)

type ext = ..
(** Per-simulation extension slots. An upper layer that needs state
    scoped to one simulation (e.g. {!Net.Packet}'s pooled packet store)
    extends this type, attaches one instance with {!add_ext}, and finds
    it back with {!find_ext} — no module-level mutable global (unsafe
    under parallel sweeps), no new parameter on every component
    constructor. *)

val add_ext : t -> ext -> unit
(** Attaches an extension. The caller is responsible for attaching one
    instance of its own constructor per simulation (check {!find_ext}
    first). *)

val find_ext : t -> (ext -> 'a option) -> 'a option
(** [find_ext sim f] returns the first attached extension [f] accepts.
    A list walk — intended for component creation, not per-event use. *)

val no_event : event_id
(** A handle matching no event; cancelling it is a no-op. Initial value
    for fields that later hold real handles (see {!Timer}). *)

val create : ?seed:int64 -> unit -> t
(** A fresh simulator with its clock at {!Time.zero}. [seed] (default 1)
    initialises the simulation-wide {!Rng.t}. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The simulation-wide random stream. Use {!Rng.split} to derive
    per-component streams. *)

val fresh_id : t -> int
(** Per-run unique id source: returns 1, 2, 3, ... across the whole
    simulation. Used for packet ids (see {!Net.Packet.make}) and any
    other per-run identifier, so ids are deterministic for a given run
    and independent of whatever other simulations the process hosts. *)

type action = Event_queue.action
(** A closure registered with the simulation, scheduled by index.
    Immediate. *)

val no_action : action
(** Matches no registration; scheduling it raises. Initial value for
    fields that later hold a registered action (see {!Timer}). *)

val action : t -> cls:int -> (unit -> unit) -> action
(** [action sim ~cls f] registers [f] with {!Event_class} index [cls]
    for the simulation's lifetime. A component that schedules the same
    closure again and again (a port's transmit completion and delivery,
    a timer's firing, a sampler's tick) registers it once at creation
    and schedules it with {!schedule_action_at}/{!schedule_action_after}:
    those store no pointer in the event queue, so neither they nor the
    firing pay a write barrier. Register per component, never per
    event — the table only grows. *)

val schedule_action_at : t -> Time.t -> action -> event_id
(** [schedule_action_at sim t a] runs the registered [a] when the clock
    reaches [t]. Events at one instant fire in scheduling order, whatever
    entry point scheduled them.
    @raise Invalid_argument if [t] is in the past or [a] is not
    registered with [sim]. *)

val schedule_action_after : t -> Time.span -> action -> event_id
(** [schedule_action_after sim d a] is
    [schedule_action_at sim (add (now sim) d) a].
    @raise Invalid_argument if [d] is negative. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> event_id
(** [schedule_at sim t f] runs the one-shot [f] when the clock reaches
    [t]. For one-off events (flow starts, fault plans, measurement
    arming); a closure scheduled per packet or per ACK belongs in an
    {!action} (dtlint R14 flags one-shot scheduling on the hot path).
    @raise Invalid_argument if [t] is in the past. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> event_id
(** [schedule_after sim d f] is [schedule_at sim (add (now sim) d) f].
    @raise Invalid_argument if [d] is negative. *)

val schedule_at_cls : t -> Time.t -> cls:int -> (unit -> unit) -> event_id
(** {!schedule_at} with an {!Event_class} index tag for the
    self-profiler. Plain {!schedule_at} tags with 0
    ({!Event_class.Other}); the tag never changes firing order. [cls] is
    a required label — an optional int argument would box [Some cls] on
    every call. *)

val schedule_after_cls : t -> Time.span -> cls:int -> (unit -> unit) -> event_id
(** {!schedule_after} with an {!Event_class} index tag. *)

val cancel : t -> event_id -> unit
(** Cancels a pending event; cancelling an already-fired or already-cancelled
    event is a no-op (stale handles are detected by the generation stamp,
    even after the underlying pooled record has been recycled). Cancelled
    events are swept from the heap lazily: whenever they come to outnumber
    the live ones the heap is compacted in O(n), so cancel-heavy runs
    (rearmed retransmission timers) do not accumulate dead weight. *)

val step : t -> bool (* dtlint: test-only: single-stepping tests *)
(** Runs the next event, advancing the clock. Returns [false] if the queue
    was empty. *)

val run : ?until:Time.t -> t -> unit
(** Runs events in time order. With [until], stops once all events at
    instants [<= until] have run and leaves the clock at [until]; without
    it, runs until the queue is empty. *)

val events_processed : t -> int
(** Number of events executed so far (cancelled events are not counted). *)

val pending : t -> int (* dtlint: test-only: reclaim tests *)
(** Number of scheduled, not-yet-fired, not-cancelled events. *)

val heap_size : t -> int (* dtlint: test-only: reclaim tests *)
(** Current queue occupancy: [pending] plus cancelled backstop-heap
    events not yet swept (wheel-resident cancels recycle immediately).
    Exposed for the reclaim tests and as a memory gauge. *)

val heap_high_water : t -> int
(** Maximum number of simultaneously live (scheduled, not fired, not
    cancelled) events seen so far — the engine's memory-pressure signal
    for the observability layer. Counts live events only; unswept
    cancelled entries are an implementation detail of the backstop
    heaps and no longer inflate this metric. *)

val event_pool_size : t -> int (* dtlint: test-only: allocation tests *)
(** Number of event records the engine has ever allocated (the event
    pool's footprint). Stays constant across steady schedule→fire
    cycles; exposed for the allocation regression tests. *)

val set_profiler :
  t -> before:(int -> unit) -> after:(int -> unit) -> unit
(** Install the self-profiler hook pair. Around every executed event the
    step loop calls [before cls] then the action then [after cls], where
    [cls] is the event's {!Event_class} index (0 for untagged events).
    The hooks receive the raw index (not the variant) so dispatching
    into per-class accumulator arrays is a plain array access. When no
    profiler is installed the step loop pays exactly one immediate-bool
    branch — the disabled path allocates nothing (asserted by the
    regression tests) and is bounded like the null tracer (<2%,
    measured in [bench perf]). At most one profiler is installed;
    setting replaces the previous one. *)

val clear_profiler : t -> unit (* dtlint: test-only: fast-path tests *)
(** Remove the profiler hooks, restoring the single-branch fast path. *)
