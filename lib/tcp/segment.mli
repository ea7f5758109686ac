(** Transport segments carried in {!Net.Packet.t}s.

    Sequence and acknowledgement numbers count whole segments (MSS units),
    the standard simplification in congestion-control simulators: window
    arithmetic is identical, byte bookkeeping is not needed.

    A segment's header lives in its packet's immediate header word
    ({!Net.Packet.word}): the segment number shifted left by two over a
    two-bit tag (data, ACK, ACK with ECN-Echo). Only SACK blocks need the
    boxed payload slot, so a data segment or a plain ACK allocates
    nothing beyond its pooled packet handle. *)

val data :
  Net.Packet.store ->
  src:int ->
  dst:int ->
  flow:int ->
  size:int ->
  ecn:Net.Packet.ecn ->
  seq:int ->
  Net.Packet.t
(** Data segment number [seq] (0-based, non-negative). Its wire size is
    the flow's configured per-segment size. *)

val ack :
  Net.Packet.store ->
  src:int ->
  dst:int ->
  flow:int ->
  size:int ->
  ack:int ->
  ece:bool ->
  sack:(int * int) list ->
  Net.Packet.t
(** Cumulative ACK, not ECN-capable: all segments below [ack] received.
    [ece] echoes congestion per the receiver's echo policy. [sack] lists
    up to three [(first, last_exclusive)] ranges of out-of-order
    segments held above [ack] (empty when SACK is off or nothing is
    held). *)

(** {1 Reading a segment}

    Allocation-free readers for the endpoints' receive paths. *)

val data_seq : Net.Packet.store -> Net.Packet.t -> int
(** The sequence number of a data segment; [-1] for any other packet. *)

val ack_no : Net.Packet.store -> Net.Packet.t -> int
(** The cumulative acknowledgement of an ACK; [-1] for any other packet. *)

val ece : Net.Packet.store -> Net.Packet.t -> bool
(** An ACK's ECN-Echo flag; [false] for any other packet. *)

val sack : Net.Packet.store -> Net.Packet.t -> (int * int) list
(** An ACK's SACK blocks; [[]] when it carries none. *)

(** {1 Decoded form} *)

type view =
  | Data of { seq : int }
  | Ack of { ack : int; ece : bool; sack : (int * int) list }
  | Other  (** The packet carries no segment. *)

val view : Net.Packet.store -> Net.Packet.t -> view (* dtlint: test-only: packet taps *)
(** All of a packet's segment fields at once, for tests and logs. *)

val describe : view -> string (* dtlint: test-only: debug rendering *)
(** For logs and debugging; {!Other} renders as ["other"]. *)
