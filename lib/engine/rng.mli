(** Deterministic pseudo-random numbers (SplitMix64).

    Each simulation owns its own generator so runs are reproducible from a
    seed and independent of any global state. [split] derives statistically
    independent child generators, used to give each flow/host its own
    stream without cross-coupling. *)

type t

val create : seed:int64 -> t

val split : t -> t
(** Derives an independent child generator; advances the parent. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> bound:int -> int
(** Uniform in [0, bound). @raise Invalid_argument if [bound <= 0]. *)

val uniform : t -> lo:float -> hi:float -> float (* dtlint: test-only: fixture draws *)
(** Uniform in [lo, hi). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val jitter_span : t -> max:Time.span -> Time.span
(** Uniform duration in [0, max]. Used to de-synchronise flow starts. *)
