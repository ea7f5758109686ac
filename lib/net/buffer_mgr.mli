(** Pluggable buffer admission for {!Queue_disc}.

    Historically every queue disc owned a private [capacity_bytes]; real
    switch ASICs instead share one memory pool across all ports, so the
    effective capacity behind a marking threshold moves as other ports
    fill. A {!port} is the admission handle a queue disc holds: either a
    private fixed-capacity buffer ({!solo}, byte-identical to the old
    behavior) or a slice of a switch-level shared pool ({!attach})
    governed by the Dynamic Threshold algorithm (Choudhury–Hahne): the
    per-port occupancy limit at any instant is [alpha x free pool bytes].

    The admission test is pure integer arithmetic — [alpha] is quantised
    to [floor(alpha * 1024) / 1024] at pool creation — so runs are
    bit-identical across machines and the hot path allocates nothing. *)

type config =
  | Static  (** each queue keeps its private fixed capacity *)
  | Dynamic_threshold of { pool_bytes : int; alpha : float }
      (** one shared pool of [pool_bytes] per switch; per-port limit =
          [alpha] x free pool bytes, [alpha] quantised to 1/1024ths *)

type pool
(** A shared memory pool with per-port accounting. *)

type port
(** A queue disc's admission handle (private buffer or pool slice). *)

val solo : capacity_bytes:int -> port
(** A private fixed-capacity buffer: admit while
    [occupancy + size <= capacity_bytes].
    @raise Invalid_argument if [capacity_bytes <= 0]. *)

val create_pool : pool_bytes:int -> alpha:float -> pool
(** @raise Invalid_argument if [pool_bytes <= 0] or [alpha < 1/1024]. *)

val attach : pool -> port
(** A fresh port drawing admission from [pool]. *)

val shared : port -> bool
(** [true] iff the port draws from a shared pool. *)

val admit : port -> int -> bool
(** [admit port size] charges [size] bytes and returns [true], or
    rejects and returns [false]. Solo ports test the fixed capacity;
    shared ports test [occupancy + size <= effective_limit] {e and}
    [pool used + size <= pool size] (the limit may exceed free memory
    when [alpha > 1]; the pool itself never overfills). *)

val release : port -> int -> unit
(** Return [size] bytes (on dequeue). *)

val effective_limit : port -> int
(** The port's occupancy limit right now: the fixed capacity for solo
    ports, [alpha x (pool size - pool used)] clamped to the pool size
    for shared ports. Moves as any port of the pool fills or drains. *)

val poll_high_water : port -> int
(** The pool high-water mark if it has risen since the last poll, [-1]
    otherwise (always [-1] for solo ports). Drives trace emission of new
    pool peaks without allocating on the hot path. *)

val occupancy : port -> int
(** Bytes currently charged to this port. *)

val pool_used : port -> int
(** Total bytes in the pool across all ports (solo: own occupancy). *)

val pool_rejects : port -> int
val pool_high_water : port -> int

val register_metrics : port -> Obs.Metrics.t -> unit
(** Register [buffer.pool_used] / [buffer.pool_high_water] /
    [buffer.pool_rejects] probes for the port's pool. No-op for solo
    ports; idempotent per pool (first registration wins), so a switch
    with many observed queues registers its pool once. *)
