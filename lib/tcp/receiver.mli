(** TCP receiver: cumulative ACK generation with a pluggable ECN echo.

    The receiver tracks in-order delivery ([rcv_nxt]), buffers out-of-order
    segments, and answers every data segment according to its echo policy:

    - [Per_packet]: one ACK per data segment, ECE mirroring that segment's
      CE bit. This gives the DCTCP sender an exact per-packet mark stream
      (the configuration the paper's simulations use).
    - [Dctcp_delayed m]: the DCTCP receiver state machine from Alizadeh et
      al.: ACKs are coalesced up to [m] segments, but a change in the CE
      run forces an immediate ACK so the sender can still reconstruct the
      marked fraction.

    Genuinely out-of-order segments (beyond [rcv_nxt] and not yet
    buffered) trigger an immediate ACK — the sender's fast retransmit
    depends on those duplicate ACKs. Stale duplicates (data already
    delivered or already buffered, i.e. go-back-N resends) are {e not}
    acknowledged again: without SACK the sender cannot distinguish such
    ACKs from loss-indicating duplicates, and re-acknowledging them causes
    spurious retransmission storms. Since ACK loss is the only case that
    silence could hurt, the sender's RTO covers it. *)

type echo_policy = Per_packet | Dctcp_delayed of int

type t

val create :
  Engine.Sim.t ->
  host:Net.Host.t ->
  flow:int ->
  peer:int ->
  ?echo:echo_policy ->
  ?sack:bool ->
  ?ack_bytes:int ->
  unit ->
  t
(** Binds the flow on [host] and starts ACKing. [peer] is the sender's host
    id. With [sack] (default off) every ACK carries up to three ranges of
    buffered out-of-order segments, enabling selective retransmission at
    the sender. [ack_bytes] defaults to 40. *)

val segments_delivered : t -> int
(** In-order segments delivered so far ([rcv_nxt]). *)

val close : t -> unit
(** Unbinds from the host. *)
