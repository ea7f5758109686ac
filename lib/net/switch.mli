(** Output-queued store-and-forward switch.

    Each output port has its own queue (and hence its own marking policy);
    forwarding uses a static routing table from destination host id to
    either a single output port or an {!Ecmp} group (a port set resolved
    per flow by a deterministic hash), installed by the topology
    builder. *)

type t

val create :
  Engine.Sim.t ->
  id:int ->
  ?buffer:Buffer_mgr.config ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  t
(** [buffer] (default {!Buffer_mgr.Static}) selects the switch's memory
    model: [Static] gives every port its private fixed-capacity buffer
    (the historical behavior); [Dynamic_threshold] creates one shared
    pool that all buffers handed out by {!port_buffer} draw from.
    [tracer] receives a {!Obs.Trace.No_route_drop} event for every
    packet dropped for want of a route; [metrics] registers the
    [switch.sw<id>.no_route_drops] probe. Both default to off. *)

val id : t -> int

val port_buffer : t -> capacity_bytes:int -> Buffer_mgr.port
(** The admission handle for one of this switch's output queues: a
    private [capacity_bytes] buffer on a [Static] switch, a slice of the
    shared pool (where [capacity_bytes] is ignored — admission is
    governed by the pool's Dynamic Threshold) otherwise. *)

val add_port : t -> Port.t -> int
(** Registers an output port, returning its index. *)

val port : t -> int -> Port.t
(** @raise Invalid_argument on a bad index. *)

val port_count : t -> int (* dtlint: test-only: fat-tree degrees *)

val reserve_routes : t -> hosts:int -> unit
(** Sizes the routing table for destinations [0 .. hosts - 1] at once.
    Routes are installed one destination at a time, so a builder that
    knows its host count calls this first and the table is allocated
    once instead of doubling its way up. *)

val set_route : t -> dst:int -> port:int -> unit
(** Routes packets destined to host [dst] out of port index [port].
    @raise Invalid_argument on a bad port index. *)

val add_group : t -> salt:int64 -> ports:int array -> int
(** Registers an ECMP group over existing port indices and returns its
    group index. The salt should come from the simulation's
    {!Engine.Rng} stream so selection stays deterministic per seed.
    @raise Invalid_argument on an empty set or a bad port index. *)

val set_group_route : t -> dst:int -> group:int -> unit
(** Routes packets destined to host [dst] across the group's port set,
    resolved per flow by {!Ecmp.select}.
    @raise Invalid_argument on a bad group index. *)

val receive : t -> Packet.t -> unit
(** Forwards according to the routing table. Packets with no route are
    counted, traced (class [C_no_route_drop]) and dropped. *)

val no_route_drops : t -> int
