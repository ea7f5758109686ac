(** TCP receiver: cumulative ACK generation with a per-packet ECN echo.

    The receiver tracks in-order delivery ([rcv_nxt]), buffers out-of-order
    segments, and answers every new data segment with one 40-byte ACK
    whose ECE mirrors that segment's CE bit. This gives the DCTCP sender
    an exact per-packet mark stream (the configuration the paper's
    simulations use).

    Genuinely out-of-order segments (beyond [rcv_nxt] and not yet
    buffered) trigger an immediate ACK — the sender's fast retransmit
    depends on those duplicate ACKs. Stale duplicates (data already
    delivered or already buffered, i.e. go-back-N resends) are {e not}
    acknowledged again: without SACK the sender cannot distinguish such
    ACKs from loss-indicating duplicates, and re-acknowledging them causes
    spurious retransmission storms. Since ACK loss is the only case that
    silence could hurt, the sender's RTO covers it. *)

type t

val create :
  Engine.Sim.t ->
  host:Net.Host.t ->
  flow:int ->
  peer:int ->
  ?sack:bool ->
  unit ->
  t
(** Binds the flow on [host] and starts ACKing. [peer] is the sender's host
    id. With [sack] (default off) every ACK carries up to three ranges of
    buffered out-of-order segments, enabling selective retransmission at
    the sender. *)

val segments_delivered : t -> int
(** In-order segments delivered so far ([rcv_nxt]). *)

val close : t -> unit
(** Unbinds from the host. *)
