(** End host.

    A host owns one NIC (an output {!Port}) and demultiplexes received
    packets to per-flow handlers registered by the transport layer. *)

type t

val create : Engine.Sim.t -> id:int -> t

val id : t -> int

val attach_nic : t -> Port.t -> unit
(** Wires the host's uplink. @raise Invalid_argument if already wired. *)

val nic : t -> Port.t (* dtlint: test-only: port probes *)
(** @raise Invalid_argument if no NIC is attached yet. *)

val send : t -> Packet.t -> unit
(** Transmits via the NIC. *)

val receive : t -> Packet.t -> unit
(** Entry point called by the network when a packet arrives. Dispatches on
    [pkt.flow]; packets with no registered handler are counted and
    dropped. *)

val bind_flow : t -> flow:int -> (Packet.t -> unit) -> unit
(** @raise Invalid_argument if the flow is already bound. *)

val unbind_flow : t -> flow:int -> unit
