(** Monomorphic event queue — the simulator's hot path.

    A hierarchical bucketed timing wheel (Varghese–Lauck style) over
    pooled event records, keyed on the (time, seq) pair: earlier
    instants first, schedule order (FIFO) within an instant. Five levels
    of 32 power-of-two time buckets over 32 ns ticks, keyed off the
    wheel's virtual position, cover a 2^30 ns (≈1.07 s) horizon; each
    bucket is an intrusive doubly-linked list over the pooled slots
    (bottom-level buckets kept in (time, seq) order), and each level
    keeps an occupancy bitmask so finding the next tick is a
    find-first-set, not a scan. Two small (key, seq) binary heaps back the wheel up at
    its edges: {e overdue} (events dated at or before an instant the
    wheel already passed — {!Sim} never produces these, but arbitrary
    call sequences may) and {e overflow} (events beyond the horizon,
    drained into the wheel a block at a time as the clock advances).
    Schedule and cancel are O(1) for wheel-resident events; pop is
    near-O(1) — each event is filed at most five times over its whole
    life, once per level it cascades through. Pop order is exactly a
    (time, seq) min-heap's (a generic binary heap, test/heap.ml, is the
    qcheck oracle).

    {b Pooling invariants.} An event record is owned by the queue from
    {!add} until it leaves the structure — by firing ({!pop_until}), by
    {!cancel} when wheel-resident (unlinked and recycled immediately),
    or, for heap-resident events, when the lazy sweep or a later pop
    reaches the dead record. At that point it is recycled: its
    generation is bumped (invalidating outstanding {!id}s) and its
    action reference is dropped (so the pool never pins a dead
    closure). Callers interact only through {!id} values, which are
    immediate ints; a stale id — one whose event already fired or was
    cancelled — is detected by the generation check and {!cancel}
    returns [false] instead of touching a recycled record.

    Times must stay below 2^62 ns (≈146 years of simulated time): keys
    are stored as unboxed [int] nanoseconds. *)

type t

type id = private int
(** Handle to a scheduled event. Immediate (never allocated). *)

val none : id
(** A handle that matches no event; [cancel t none] is a no-op. Useful
    as an initial value for fields that later hold real ids. *)

val create : ?capacity:int -> unit -> t
(** Empty queue. [capacity] (default 1024) pre-sizes the overflow
    heap's array. The event pool starts empty and grows by doubling on
    demand, as does the heap. *)

val length : t -> int
(** Occupancy the queue actually holds in memory: live events plus
    cancelled heap-resident events not yet swept. Wheel-resident
    cancels recycle immediately and never linger, so on the {!Sim}
    fast path (no past or beyond-horizon events) this equals {!live}. *)

val live : t -> int
(** Scheduled, not-yet-fired, not-cancelled events. *)

val pool_size : t -> int
(** Number of event records ever allocated (live + dead + free). A
    steady schedule→pop cycle keeps this constant — the observable
    effect of pooling, asserted by the allocation regression tests. *)

val overdue_len : t -> int
(** Entries (live + unswept dead) in the overdue backstop heap — events
    scheduled at or before an instant the wheel has already passed.
    Always 0 under {!Sim}, which forbids scheduling in the past.
    Exposed so tests can assert which structure a trace exercised. *)

val overflow_len : t -> int
(** Entries (live + unswept dead) in the far-future overflow heap —
    events beyond the wheel's 2^30 ns horizon, waiting to drain. *)

val add : t -> time:Time.t -> (unit -> unit) -> id
(** Schedules an action. Events added at equal [time] fire in [add]
    order. O(1) for events within the wheel horizon (the common case);
    O(log n) into a backstop heap otherwise. Allocates only when the
    pool has no free record. The event carries class tag 0
    ({!Event_class.Other}). *)

val add_cls : t -> time:Time.t -> cls:int -> (unit -> unit) -> id
(** {!add} with an explicit {!Event_class} index tag for the
    self-profiler. [cls] is a required label (an optional int would box
    on every call); tagging is one immediate store and never changes
    pop order. *)

val cancel : t -> id -> bool
(** Cancels the event; returns [false] (and does nothing) if the id is
    stale — already fired, already cancelled, or recycled. A
    wheel-resident event (the hot case: every pending timer within
    ~1 s) is unlinked from its bucket and recycled immediately, O(1).
    Heap-resident events (overdue / far-future) are marked dead and
    swept lazily: once corpses exceed half that heap (and it holds at
    least 64 entries) it is compacted in O(n). *)

val pop_until : t -> int -> bool
(** [pop_until t stop_ns] removes the minimum live event if its key is
    at or before [stop_ns] nanoseconds; otherwise it removes nothing and
    returns [false], as it does when no live event remains. Finding the
    minimum advances the wheel's virtual position (cascading
    higher-level buckets as it crosses into them) and recycles any
    cancelled heap roots met on the way, so a cancelled root never hides
    a live event behind it. An overflow block is drained into the wheel
    only when its earliest event is due, so the position never jumps
    past [stop_ns]. On [true] the fired event's fields are readable via
    {!popped_time} / {!popped_action} / {!popped_cls} until the next
    pop. *)

val pop : t -> bool
(** [pop_until t max_int]: removes the minimum live event, returning
    [false] when none remains. *)

val popped_time : t -> Time.t
val popped_action : t -> unit -> unit

val popped_cls : t -> int
(** {!Event_class} index of the last popped event (0 = untagged). *)
