(** Run results, unified across workload variants.

    [Runner] wraps every workload's result record in one sum type so
    sweeps over heterogeneous scenarios return a single array, and a
    failed run is an ordinary value ({!Failed}) rather than an exception
    that kills the sweep. *)

type payload =
  | Longlived of Workloads.Longlived.result
  | Fanin of Workloads.Fanin.result
  | Dynamic of Workloads.Dynamic.result
  | Convergence of Workloads.Convergence.result
  | Fattree of Workloads.Fattree.result

type t =
  | Done of payload
  | Failed of { spec : string; error : string }
      (** [spec] is the failing scenario's name; [error] the printed
          exception. *)

val payload_kind : payload -> string
(** Workload tag, matching {!Spec.workload_name}. *)

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
