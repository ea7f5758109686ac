(** Registry of named probes.

    Components register metrics under dotted names
    (["queue.bottleneck.drops"], ["engine.events_processed"]) as closures
    over the counters they already keep, so the hot path pays nothing
    for being observed. {!snapshot} reads everything in name-sorted
    order so output is deterministic regardless of registration or
    hashing order. *)

type t

val create : unit -> t

val probe : t -> string -> (unit -> float) -> unit
(** Register a read-on-snapshot metric backed by a closure — the value
    already lives in a component (e.g. the engine's event count), and
    duplicating it would risk drift.
    @raise Invalid_argument if the name is already registered. *)

val snapshot : t -> (string * float) list
(** All metrics, sorted by name. Integer counts widen to float ([int]
    counts in a simulation fit a float mantissa). *)

val snapshot_to_json : (string * float) list -> Json.t
