(** Restartable one-shot timers.

    A thin convenience layer over {!Sim} used for protocol timers (e.g. TCP
    retransmission timeouts): setting a timer that is already pending
    replaces its deadline. *)

type t

val create : Sim.t -> action:(unit -> unit) -> t
(** An idle timer that runs [action] when it fires. *)

val set : t -> after:Time.span -> unit
(** Arms (or re-arms) the timer to fire [after] from now. *)

val cancel : t -> unit
(** Disarms the timer; no-op if idle. *)

val is_pending : t -> bool

val deadline : t -> Time.t option (* dtlint: test-only: re-arm tests *)
(** Instant at which the timer will fire, if armed. *)
