(** Run results, unified across workload variants.

    [Runner] wraps every workload's result record in one sum type so
    sweeps over heterogeneous scenarios return a single array, and a
    failed run is an ordinary value ({!Failed}) rather than an exception
    that kills the sweep. *)

type payload =
  | Dumbbell of Workloads.Dumbbell.result
  | Fanin of Workloads.Fanin.result
  | Fattree of Workloads.Fattree.result

type t =
  | Done of payload
  | Failed of { spec : string; error : string }
      (** [spec] is the failing scenario's name; [error] the printed
          exception. *)

val to_json : t -> Obs.Json.t
(** Full result serialization (including optional queue series and
    per-window share matrices). Non-finite floats are preserved in the
    tree; {!Obs.Json.equal} compares them by bit pattern, which is what
    the parallel-vs-serial identity check relies on. *)

val summary : t -> string
(** One-line human summary for CLI output (the library itself never
    prints). *)

val equal : t -> t -> bool
(** Bit-exact comparison via {!to_json}. *)
