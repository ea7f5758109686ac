(** Drop-tail FIFO queue with a pluggable ECN marking policy.

    The queue also keeps exact time-weighted occupancy statistics (integral
    of occupancy over time), so experiments can compute the mean and the
    standard deviation of the queue length without recording a full trace. *)

type t

val create :
  Engine.Sim.t ->
  buffer:Buffer_mgr.port ->
  ?marking:Marking.t ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?name:string ->
  unit ->
  t
(** [buffer] is the admission handle the queue borrows capacity from —
    [Buffer_mgr.solo ~capacity_bytes] reproduces the historical private
    fixed-capacity behavior bit-for-bit; a port attached to a shared
    pool admits against the Dynamic Threshold limit instead. [tracer]
    (default {!Obs.Trace.null}) receives [Enqueue] / [Dequeue] / [Drop]
    / [Mark] events with this queue's [name] as the component; shared
    ports additionally emit [Pool_reject] and [Pool_high_water]. When
    [metrics] is given, probes [queue.<name>.drops], [.marks] and
    [.enqueues] are registered against the live counters, plus the
    pool's [buffer.*] probes for shared ports (once per pool). The
    marking policy's [on_limit] hook is invoked once at creation with
    the current effective limit, and on every occupancy change while
    the queue sits on a shared pool. *)

val name : t -> string

val enqueue : t -> Packet.t -> [ `Enqueued | `Dropped ]
(** Tail-drops if the packet does not fit. On acceptance the marking policy
    decides whether to set CE on the arriving packet (only effective for
    ECT packets). *)

val dequeue : t -> Packet.t option

val dequeue_exn : t -> Packet.t
(** {!dequeue} without the option box, for the transmit hot path (pair it
    with {!is_empty}).
    @raise Not_found when the queue is empty. *)

val is_empty : t -> bool

val occupancy_bytes : t -> int
val occupancy_packets : t -> int

val capacity_bytes : t -> int
(** The largest occupancy the buffer can ever grant: the fixed capacity
    for solo ports, the pool size for shared ports. *)

val effective_limit : t -> int
(** The admission limit right now ({!Buffer_mgr.effective_limit}); equals
    {!capacity_bytes} for solo ports, moves with the pool otherwise. *)

val buffer : t -> Buffer_mgr.port
(** The admission handle this queue draws from. *)

val drops : t -> int
(** Packets tail-dropped since creation. *)

val enqueued : t -> int
(** Packets accepted since creation. *)

val marked : t -> int
(** Packets CE-marked since creation. *)

(** {2 Time-weighted occupancy statistics} *)

val reset_stats : t -> unit
(** Restart the occupancy integrals at the current instant (call at the end
    of a warm-up period). Also resets {!drops}/{!enqueued}/{!marked}. *)

val mean_occupancy_bytes : t -> float
(** Time-weighted mean occupancy since the last {!reset_stats}. *)

val stddev_occupancy_bytes : t -> float

val mean_occupancy_packets : t -> float
(** Mean occupancy measured in packets (time-weighted over the packet
    count, not bytes/MTU). *)

val stddev_occupancy_packets : t -> float

val max_occupancy_bytes : t -> int
(** Peak occupancy since the last {!reset_stats}. *)
