(** Active-queue-management marking policies.

    A policy is consulted by {!Queue_disc} on every enqueue (may the
    arriving packet be ECN-marked?) and informed of every dequeue (so
    policies with hysteresis can observe queue descents). Policies are
    stateful; create one instance per queue.

    The network layer ships only the trivial {!none} policy; the paper's
    single-threshold (DCTCP) and double-threshold (DT-DCTCP) policies
    live in [lib/dctcp] and are built with {!make}. *)

type t = {
  name : string;
  on_enqueue : bytes:int -> packets:int -> bool;
      (** Called after the arriving packet is accepted, with the queue
          occupancy including it; [true] = mark CE. Occupancy is passed
          as two labelled ints (not a record) so the per-packet hot path
          allocates nothing. *)
  on_dequeue : bytes:int -> packets:int -> unit;
      (** Called after a packet leaves; occupancy excludes it. *)
  on_limit : limit_bytes:int -> unit;
      (** Called by {!Queue_disc} whenever the buffer manager's
          effective capacity for the queue changes: once at queue
          creation, then before every enqueue/dequeue consultation while
          the queue sits on a shared {!Buffer_mgr} pool (a Static
          buffer's limit never moves, so the hook stays silent there).
          Lets limit-relative policies re-derive their thresholds from a
          moving K. *)
}

val make :
  name:string ->
  ?on_limit:(limit_bytes:int -> unit) ->
  on_enqueue:(bytes:int -> packets:int -> bool) ->
  on_dequeue:(bytes:int -> packets:int -> unit) ->
  unit ->
  t
(** [on_limit] defaults to a no-op: occupancy-threshold policies with
    absolute byte thresholds ignore capacity movement. *)

val none : unit -> t
(** Never marks (plain drop-tail). *)

val suppress :
  active:(unit -> bool) ->
  on_suppress:(bytes:int -> packets:int -> unit) ->
  t ->
  t
(** ECN-degradation wrapper (fault injection): the inner policy runs on
    every enqueue — its internal state keeps advancing — but whenever it
    asks for a mark while [active ()] holds, the mark is discarded and
    [on_suppress] is invoked with the occupancy instead. Models a
    non-ECN or mark-dropping switch without disturbing the marker. *)
