(** Run-provenance records.

    One JSON object per run capturing what would be needed to reproduce
    and compare it: scenario name, RNG seed, parameters, wall-clock
    duration, engine event count and throughput, and the final metrics
    snapshot. [dtsim sweep] emits one per run ([--out-dir]) and every bench
    section emits one ([BENCH_*.json]), so results are comparable across
    PRs. *)

type t = {
  name : string;  (** Scenario identifier, e.g. ["dtsim.longlived"]. *)
  seed : int64;
  params : (string * Json.t) list;
  wall_clock_s : float;
  events : int;  (** Engine events processed. *)
  events_per_s : float;
  metrics : (string * float) list;  (** Name-sorted. *)
  analysis : Json.t option;
      (** Streaming-analysis block ({!Analyze.to_json}), present only
          when the run was executed with analysis enabled. [None]
          serializes to the historic manifest shape, byte for byte. *)
}

val make :
  ?analysis:Json.t ->
  name:string ->
  seed:int64 ->
  params:(string * Json.t) list ->
  wall_clock_s:float ->
  events:int ->
  metrics:(string * float) list ->
  unit ->
  t
(** Computes [events_per_s] (0 when [wall_clock_s <= 0]) and sorts
    [metrics] by name. *)

val to_json : t -> Json.t
(** The seed is serialized as a decimal {e string}: int64 values can
    exceed the exact-integer range of common JSON readers. *)

val of_json : Json.t -> (t, string) result (* dtlint: test-only: read-back tests *)
(** Inverse of {!to_json}; tolerates numbers written as ints or floats. *)

val write : out_channel -> t -> unit
(** [to_json] plus a trailing newline, into a caller-owned channel. *)
