(** Network packets, stored struct-of-arrays.

    A packet is an immediate handle (an int) into its simulation's
    packet {!store}: size, addressing, ECN codepoint, the enqueue
    timestamp and one transport header word live in parallel int arrays
    indexed by the handle, and the opaque transport payload (extensible
    variant, so the transport layer can define its own segments without
    a dependency cycle) in a parallel boxed array. The network hot loop
    — enqueue, dequeue, mark, forward — therefore walks flat arrays
    instead of dereferencing a boxed record per packet, handing a packet
    between components never pays a write barrier, and a steady flow of
    traffic allocates no packets at all: handles are pooled through a
    free-list stack.

    {b Ownership is linear.} [make] transfers the handle to the caller;
    whoever consumes the packet — the terminal flow handler, a dropping
    queue, a routeless switch, a lossy link — must {!free} it, exactly
    once, after reading the fields it needs. A double [free] is detected
    (the slot's uid is cleared) and raises; reads through a stale handle
    are {e not} detected — they see whatever packet recycled the slot —
    which is the usual pooling bargain, kept honest by the qcheck suites
    and the bit-identical-manifest acceptance bar. Components that never
    free (one-shot test harnesses) merely grow the pool. *)

type ecn =
  | Not_ect  (** Sender does not support ECN; congested switches drop. *)
  | Ect  (** ECN-capable transport. *)
  | Ce  (** Congestion experienced (set by a switch). *)

type payload = ..
(** Transport payloads; extended by [lib/tcp]. *)

type payload += No_payload

type t = int
(** Packet handle. Immediate (the equality is public so handles flow
    through int containers like {!Engine.Int_ring} without coercions);
    valid only against the store of the simulation that made it, from
    [make] until [free]. *)

val none : t
(** Sentinel handle ([-1]) matching no packet. Initial value for fields
    that later hold real packets; never [free] it or read through it. *)

type store
(** The per-simulation struct-of-arrays packet pool. *)

val store_of : Engine.Sim.t -> store
(** The simulation's packet store, created on first use and attached to
    the simulation's extension slots ({!Engine.Sim.add_ext}) — every
    component created with the same [sim] shares one store. Resolve at
    component creation and keep the result; the lookup is a list walk. *)

val make :
  store ->
  src:int ->
  dst:int ->
  flow:int ->
  size:int ->
  ecn:ecn ->
  payload ->
  t
(** Allocates a packet from the pool (recycling a freed slot when one
    exists). Ids are drawn from the owning simulation
    ({!Engine.Sim.fresh_id}): 1, 2, 3, ... per run, independent of any
    other simulation in the process.
    @raise Invalid_argument if [size <= 0]. *)

val make_with_word :
  store ->
  src:int ->
  dst:int ->
  flow:int ->
  size:int ->
  ecn:ecn ->
  word:int ->
  payload ->
  t
(** {!make} that also sets the packet's header {!word}. A transport
    keeps its per-packet header fields (sequence and ACK numbers, flag
    bits) there, so the common segment needs no boxed payload at all;
    [make] stores word [0]. *)

val free : store -> t -> unit
(** Returns the handle to the pool and drops the payload reference.
    @raise Invalid_argument if the handle was already freed. *)

val id : store -> t -> int
(** Unique, deterministic per-simulation id, for debugging; [-1] on a
    freed slot. *)

val src : store -> t -> int
val dst : store -> t -> int

val flow : store -> t -> int
(** Flow id, used by hosts to demultiplex. *)

val size : store -> t -> int
(** Bytes on the wire. *)

val payload : store -> t -> payload

val word : store -> t -> int
(** The header word given to {!make_with_word}; [0] for {!make}. Its
    encoding belongs to the transport that made the packet. *)

val ecn : store -> t -> ecn

val mark_ce : store -> t -> unit
(** Sets CE; only legal on ECN-capable packets (no-op on [Not_ect], which
    mirrors real switches that cannot mark non-ECT traffic). *)

val is_ce : store -> t -> bool
val is_ect : store -> t -> bool

val set_enq_ns : store -> t -> int -> unit
(** Records the instant (int nanoseconds) the packet was last admitted
    to a queue; written by {!Queue_disc.enqueue}. *)

val enq_ns : store -> t -> int
(** Last recorded admission instant, 0 if never enqueued. The head's
    sojourn time is [now - enq_ns] — the input a delay-based AQM needs. *)

val live_count : store -> int
(** Packets currently allocated (made, not yet freed). *)

val pool_size : store -> int
(** Slots ever allocated (live + free). Steady traffic through
    free-discipline components keeps this constant — the observable
    effect of pooling, asserted by the regression tests. *)

val pp : store -> Format.formatter -> t -> unit
