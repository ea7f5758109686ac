(** The paper's switch-side marking mechanisms.

    {b Single threshold} (DCTCP, Fig. 2a): an arriving packet is CE-marked
    iff the instantaneous queue occupancy exceeds [K] at its arrival.

    {b Double threshold} (DT-DCTCP, Fig. 2b): marking is a state, not a
    per-packet comparison: it turns on when the queue rises through [K1]
    and off when it falls back through [K2]. The paper only specifies the
    behaviour on large swings that cross both thresholds; we implement the
    zone semantics documented in DESIGN.md. With [lo = min K1 K2] and
    [hi = max K1 K2]:

    - occupancy above [hi]: always marking;
    - occupancy at/below [lo]: never marking;
    - inside the band ([lo], [hi]]: with [K1 < K2] (the paper's simulation
      setup) the band is directional — entering it rising through [K1]
      turns marking on (start early), entering it falling through [K2]
      turns marking off (stop early), and the state is held while the
      occupancy wanders inside the band; with [K1 > K2] (the paper's
      testbed setup) the band is a classic thermostat and the state is
      simply held.

    With [K1 = K2 = K] the policy degenerates {e exactly} to the single
    threshold (property-tested).

    All thresholds are in bytes; use {!bytes_of_packets} for the paper's
    packet-denominated parameters. *)

val bytes_of_packets : int -> int
(** [bytes_of_packets k] is [k] full-size 1500 B packets. *)

val single_threshold : k_bytes:int -> Net.Marking.t
(** Marks an arriving packet iff the occupancy including it is strictly
    above [k_bytes] (i.e. the queue already held at least [k_bytes]).
    @raise Invalid_argument if [k_bytes < 0]. *)

type flip_callback = marking:bool -> occ_bytes:int -> unit
(** Observer of hysteresis state changes: [marking] is the {e new} state,
    [occ_bytes] the occupancy that caused the flip. *)

val double_threshold :
  ?on_flip:flip_callback -> k1_bytes:int -> k2_bytes:int -> unit -> Net.Marking.t
(** Hysteresis marker as described above. [on_flip] fires on every state
    change — the paper's mechanism made directly observable (with
    [K1 = K2] the state never enters the band and flips still occur at
    the single threshold's crossings).
    @raise Invalid_argument if a threshold is negative. *)

(** {2 Limit-relative (scaled) variants}

    On a shared-memory switch ({!Net.Buffer_mgr.Dynamic_threshold}) the
    capacity behind a port moves as other ports fill, so an absolute [K]
    can sit above the entire effective limit (never marks, queue tail
    drops instead) or pin the queue near empty. The scaled variants take
    thresholds as {e fractions of the current effective limit} and
    re-derive the byte thresholds from every [on_limit] callback — the
    paper's hysteresis band riding on a moving K. Fractions are
    quantised to 1/1024ths so the derivation is pure integer arithmetic
    (bit-identical across machines, allocation-free per packet). On a
    Static buffer [on_limit] fires once at queue creation, making these
    equivalent to the absolute policies at [frac x capacity]. *)

val single_threshold_scaled : k_frac:float -> Net.Marking.t
(** DCTCP marking at [K = k_frac x effective limit].
    @raise Invalid_argument if [k_frac] is outside [0, 1]. *)

val double_threshold_scaled :
  ?on_flip:flip_callback -> k1_frac:float -> k2_frac:float -> unit -> Net.Marking.t
(** Hysteresis marker with [K1 = k1_frac x limit], [K2 = k2_frac x
    limit]. The in-band rule (directional vs thermostat) follows the
    quantised fraction ordering and cannot change as the limit moves.
    @raise Invalid_argument if a fraction is outside [0, 1]. *)
