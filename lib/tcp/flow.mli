(** A TCP flow: sender and receiver wired across the network.

    Convenience layer that allocates the two endpoints, binds them to their
    hosts under a shared flow id, and exposes the statistics experiments
    need. *)

type t

val create :
  Engine.Sim.t ->
  src:Net.Host.t ->
  dst:Net.Host.t ->
  flow:int ->
  cc:Cc.factory ->
  ?tracer:Obs.Trace.t ->
  ?config:Sender.config ->
  ?echo:Receiver.echo_policy ->
  ?limit_segments:int ->
  ?on_complete:(t -> unit) ->
  unit ->
  t
(** The flow does not transmit until {!start} (or {!start_at}). [tracer]
    is forwarded to {!Sender.create}. *)

val start : t -> unit

val start_at : t -> Engine.Time.t -> unit
(** Schedules {!start} at an absolute instant. *)

val sender : t -> Sender.t
val alpha : t -> float option
val completed : t -> bool

val completion_time : t -> Engine.Time.t option
(** Time at which the last segment was cumulatively acknowledged. *)

val segments_delivered : t -> int
(** In-order segments at the receiver. *)


val close : t -> unit
