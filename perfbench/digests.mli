(** Output check: per-run digests that ignore host timing.

    A manifest records how long its run took on this host
    ([wall_clock_s], [events_per_s]); everything else in it — the spec,
    the seed, the event count, the metrics snapshot, the analyzer block —
    is a deterministic function of the spec. Stripping the host-timing
    fields and hashing the rest gives a digest that two runs of the same
    spec share on any machine and at any [-j], and that any change of a
    simulated count breaks. *)

val host_timing_fields : string list
(** [["wall_clock_s"; "events_per_s"]]. *)

val normalise : Obs.Json.t -> Obs.Json.t
(** Removes {!host_timing_fields} from a manifest object; other values
    pass through unchanged. *)

val of_json : Obs.Json.t -> string
(** Hex MD5 of the one-line rendering. *)

type entry = {
  name : string;  (** Spec name. *)
  manifest : string;  (** Normalised manifest, analyzer block included. *)
  analysis : string;  (** Analyzer block alone; ["-"] when absent. *)
  result : string;
      (** Outcome JSON: queue statistics, FCT percentiles, counters. *)
}

val entry : Obs.Manifest.t -> result:Obs.Json.t -> entry

val equal : entry -> entry -> bool

val mismatches : expected:entry array -> entry array -> bool array
(** Per run, [true] when it differs from the expected entry at the same
    index (or has none). *)

val to_json : entry array -> Obs.Json.t

val of_json_entries : Obs.Json.t -> (entry array, string) result
(** Inverse of {!to_json}. *)
