(** Helpers shared by the concrete workloads.

    Every workload module pairs a plain-record [config] (with a complete
    default) with a plain-record [result]. Their [run] functions differ
    in the optional observation, fault and buffer arguments they take,
    so [Exp.Spec] names each workload by a variant and [Exp.Runner]
    calls each [run] directly. *)

val require_positive : scenario:string -> what:string -> int -> unit
(** [require_positive ~scenario ~what n] rejects non-positive scenario
    sizes with a uniform message.
    @raise Invalid_argument if [n <= 0]. *)

val require_non_negative : scenario:string -> what:string -> int -> unit
(** Like {!require_positive} for values that may be zero.
    @raise Invalid_argument if [n < 0]. *)

val repeat_seed : base:int64 -> stride:int -> int -> int64
(** Seed for repeat [r] of a multi-repeat workload: [base + r * stride].
    Strides are distinct per workload so repeats never share an RNG
    stream across workload families. *)

val run_slices :
  Engine.Sim.t -> cap:Engine.Time.t -> pending:(unit -> bool) -> unit
(** Advance [sim] in 5 ms steps until [pending] reports completion or the
    clock reaches [cap] — the "stop as soon as the query is answered"
    loop of the fan-in and fat-tree workloads. *)
