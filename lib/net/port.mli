(** Output port: queue + serializer + propagation.

    A port drains its {!Queue_disc} at the line rate, then delivers each
    packet to the remote end after the link's propagation delay. Ports are
    unidirectional; a full-duplex cable is a pair of ports.

    Fault injection (lib/fault) drives three extensions: link up/down
    state ({!set_up}), runtime rate changes ({!set_rate}), and a
    pre-delivery hook ({!set_fault_hook}) that can lose or delay
    individual packets. None of them perturbs an un-faulted run: with the
    link up, the default rate, and no hook installed, the event sequence
    is identical to a port without these features. *)

type t

(** What the fault hook decides for a packet about to be delivered. *)
type disposition =
  | Deliver  (** Deliver normally. *)
  | Lose  (** Drop silently on the wire. *)
  | Delay of Engine.Time.span  (** Deliver after an extra delay (may reorder). *)

val create :
  Engine.Sim.t ->
  rate_bps:float ->
  delay:Engine.Time.span ->
  queue:Queue_disc.t ->
  deliver:(Packet.t -> unit) ->
  t
(** [deliver] is invoked at the remote end, [delay] after serialization
    completes. @raise Invalid_argument if [rate_bps <= 0]. *)

val send : t -> Packet.t -> unit
(** Enqueues (possibly tail-dropping) and starts transmitting if idle and
    the link is up. While the link is down packets accumulate in the
    queue (and tail-drop once it fills). *)

val set_up : t -> bool -> unit
(** Take the link down or bring it back up. Taking it down lets the
    packet currently serializing finish (it is already on the wire);
    bringing it up restarts transmission if the queue is non-empty. *)

val is_up : t -> bool (* dtlint: test-only: flap tests probe it *)

val set_rate : t -> float -> unit
(** Change the line rate mid-run; affects packets whose serialization
    starts after the call. @raise Invalid_argument if the rate is not
    positive. *)

val set_fault_hook : t -> (Packet.t -> disposition) -> unit
(** Install a per-packet hook consulted when a packet reaches the remote
    end of the link, before [deliver]. Installed once per port by
    [Fault.Injector]; not designed to be stacked. *)

val queue : t -> Queue_disc.t
val rate_bps : t -> float

val tx_time : t -> bytes:int -> Engine.Time.span (* dtlint: test-only: serialization tests *)
(** Serialization time of [bytes] at the port's rate. *)

val bytes_sent : t -> int
(** Payload bytes fully serialized since creation or {!reset_counters}. *)

val packets_sent : t -> int (* dtlint: test-only: port counter tests *)

val reset_counters : t -> unit
