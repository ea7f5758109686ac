(** Structured event tracing with pluggable sinks.

    Components emit typed {!event}s through a {!t} (tracer). The tracer
    filters by event class (a bitmask) and forwards surviving records to
    its sink. The {!null} tracer has an empty mask, so the recommended
    guard

    {[
      if Obs.Trace.enabled tr Obs.Trace.C_drop then
        Obs.Trace.emit tr { time; component; event = Drop ... }
    ]}

    allocates nothing on an untraced run — [enabled] is one [land].

    The four occupancy classes (enqueue, dequeue, mark, drop) fire on
    every packet, so they have a second entry point, {!emit_occ}, that
    takes the fields as immediate arguments. A tracer built with
    {!create_handler} (the analyzer's) receives them unboxed; record
    sinks receive the record {!emit} would have delivered.

    File sinks take a caller-owned [out_channel]; this module never opens
    files or writes to stdout (dtlint R4). *)

(** A simulation micro-event. Occupancy fields record the queue state
    {e after} the event took effect. *)
type event =
  | Enqueue of { flow : int; occ_bytes : int; occ_pkts : int }
  | Dequeue of { flow : int; occ_bytes : int; occ_pkts : int }
  | Drop of { flow : int; occ_bytes : int }
      (** Tail drop; [occ_bytes] is the occupancy that refused the packet. *)
  | Mark of { flow : int; occ_bytes : int; occ_pkts : int }
      (** CE mark applied on enqueue. *)
  | Mark_state_flip of { marking : bool; occ_bytes : int }
      (** Hysteresis zone machine changed state (DT-DCTCP, PAPER §IV). *)
  | Cwnd_cut of {
      flow : int;
      cwnd_before : float;
      cwnd_after : float;
      alpha : float;
    }  (** DCTCP alpha-proportional window reduction. *)
  | Fast_retransmit of { flow : int; snd_una : int }
  | Rto of { flow : int; snd_una : int; timeouts : int }
  | Flow_start of { flow : int }
  | Flow_done of { flow : int; segments : int }
  | Link_down of { occ_bytes : int }
      (** Fault injection took the link down; [occ_bytes] is the queue
          occupancy at that instant. *)
  | Link_up of { occ_bytes : int }
  | Pkt_lost of { flow : int; size : int }
      (** Fault injection dropped an in-flight packet on the wire. *)
  | Mark_suppressed of { occ_bytes : int; occ_pkts : int }
      (** The marking policy asked for a CE mark but fault injection
          suppressed it ("non-ECN switch" degradation). *)
  | Rate_changed of { rate_bps : float }
      (** Fault injection changed the link rate mid-run. *)
  | Pool_reject of {
      flow : int;
      occ_bytes : int;
      pool_used : int;
      limit_bytes : int;
    }
      (** A shared {!Net.Buffer_mgr} pool refused the packet: the port sat
          at [occ_bytes] against an effective limit of [limit_bytes] with
          [pool_used] bytes committed pool-wide. Emitted alongside the
          plain [Drop] so occupancy-only consumers keep working. *)
  | Pool_high_water of { pool_used : int }
      (** The shared pool reached a new occupancy peak. *)
  | No_route_drop of { flow : int; dst : int }
      (** A switch received a packet whose destination has no routing
          entry and dropped it — almost always a topology wiring bug. *)

type record = { time : Engine.Time.t; component : string; event : event }

(** {1 Event classes} *)

(** One class per [event] constructor; the unit of filtering. *)
type cls =
  | C_enqueue
  | C_dequeue
  | C_drop
  | C_mark
  | C_mark_state_flip
  | C_cwnd_cut
  | C_fast_retransmit
  | C_rto
  | C_flow_start
  | C_flow_done
  | C_link_down
  | C_link_up
  | C_pkt_lost
  | C_mark_suppressed
  | C_rate_changed
  | C_pool_reject
  | C_pool_high_water
  | C_no_route_drop

val all_classes : cls list
val cls_of_event : event -> cls

val cls_name : cls -> string
(** Stable lowercase identifier, e.g. ["mark_state_flip"]; used in JSON
    and the [--trace-events] CLI flag. *)

val cls_of_name : string -> cls option
(** Inverse of {!cls_name}; trims and lowercases first. *)

(** {1 Ring buffer} *)

type ring

val ring : capacity:int -> ring
(** Bounded in-memory sink keeping the most recent [capacity] records.
    @raise Invalid_argument if [capacity <= 0]. *)

val ring_length : ring -> int
(** Records currently held ([<= capacity]). *)

val ring_total : ring -> int
(** Records ever pushed, including overwritten ones. *)

val ring_records : ring -> record list (* dtlint: test-only: ring read side *)
(** Held records, oldest first. *)

(** {1 Tracers} *)

type sink =
  | Null
  | Ring of ring
  | Jsonl of out_channel  (** One JSON object per line. *)
  | Fn of (record -> unit)

type t

val null : t
(** Shared no-op tracer: every class disabled, sink [Null]. Safe as a
    default argument everywhere. *)

val create : ?classes:cls list -> sink -> t
(** New tracer accepting [classes] (default: all). *)

val enabled : t -> cls -> bool

val emit : t -> record -> unit
(** Forward to the sink if the record's class is enabled. Callers on hot
    paths should guard with {!enabled} to avoid constructing the record. *)

type occ_handler =
  cls ->
  time:Engine.Time.t ->
  component:string ->
  flow:int ->
  occ_bytes:int ->
  occ_pkts:int ->
  unit
(** Consumer of one occupancy event, every field immediate. [cls] is
    [C_enqueue], [C_dequeue], [C_mark] or [C_drop]. For a drop,
    [occ_pkts] carries nothing (the [Drop] record has no such field). *)

val create_handler :
  ?classes:cls list -> occ:occ_handler -> (record -> unit) -> t
(** A tracer with no record sink: events sent with {!emit_occ} go to
    [occ], records sent with {!emit} to the function. The two must treat
    an occupancy event the same whichever way it arrives. Accepts
    [classes] (default: all). *)

val emit_occ :
  t ->
  cls ->
  time:Engine.Time.t ->
  component:string ->
  flow:int ->
  occ_bytes:int ->
  occ_pkts:int ->
  unit
(** [emit_occ t cls ~time ~component ~flow ~occ_bytes ~occ_pkts] is
    [emit t r] for the occupancy record [r] of class [cls] ([occ_pkts]
    is ignored for [C_drop]), delivered without building [r] where no
    sink needs it: handlers get the fields, [Ring]/[Jsonl]/[Fn]
    sinks get [r], built at most once per call however many tee
    branches consume it. Keep the {!enabled} guard at the call site: it
    saves evaluating the arguments on untraced runs.
    @raise Invalid_argument if [cls] is not an occupancy class. *)

val enabled_classes : t -> cls list
(** The classes the tracer currently accepts, in {!all_classes} order.
    Used by the trace-file header so an offline consumer knows which
    classes the file can possibly contain. *)

val tee : t -> t -> t
(** [tee a b] forwards each record to both [a] and [b], each through its
    own path ({!emit_occ} stays unboxed into a handler branch). Its own
    mask is the union of the two masks {e at tee time}, and each branch
    re-filters with its own mask on delivery — so emit-site [enabled]
    guards fire when either branch wants the class, and each branch
    still receives exactly its own class set. This is how analysis
    attaches alongside a file sink without disturbing what the file
    records. *)

(** {1 Serialization} *)

val record_to_json : record -> Json.t (* dtlint: test-only: JSONL fixtures *)
(** Object with [t_ns], [event], [component], plus per-event fields. *)

val record_of_json : Json.t -> (record, string) result
(** Strict inverse of {!record_to_json}: every field the constructor
    carries is required (numbers tolerate int-vs-float spelling). This
    is what lets [dtsim analyze] replay a JSONL trace through the same
    streaming analyzers a live run uses. *)
