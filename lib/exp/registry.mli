(** Named scenario catalogue.

    One place declaring the paper's operating points and every sweep the
    figure harness and [dtsim sweep] run, so the bench sections and the
    CLI execute literally the same {!Spec} values. Each family is its
    full-scale spec list, looked up by name; --quick is
    [Exp.Claim.quick], one function of a spec. *)

(** {2 Protocol operating points} *)

val sim_dctcp : Spec.protocol (* dtlint: test-only: hand-built test specs *)
(** Simulation sections: K = 40 pkt, g = 1/16 (Section VI-A). *)

val sim_dt : Spec.protocol (* dtlint: test-only: hand-built test specs *)
(** DT-DCTCP split (K1, K2) = (30, 50) pkt. The testbed points of
    Section VI-B (K = 32 KB; (start, stop) = (28, 34), (30, 34) and the
    swapped (34, 28) KB of ablation E) stay inside the registry. *)

(** {2 Sweep builders} *)

val fig_queue_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list
(** Figure 1's queue traces at N = 10 and 100, sampled every 20 us; the
    [fig_queue] family at the default 100/200 ms windows. *)

(** {2 Constants the claims record}

    The families themselves are reached through {!find} and {!select}. *)

val sweep_ns : int list
(** N = 10, 15, ..., 100: the [fig_sweep] family. *)

val oscillation_ns : int list
(** N = 10, 30, 60: the [oscillation] family. *)

val incast_flow_counts : int list
(** The fan-in of the [fig_incast] and [fig_completion] families. *)

val bdp_bytes : int
(** One bandwidth-delay product of the simulated dumbbell: 10 Gbps x
    100 us / 8 = 125 KB. *)

val buffer_pool_sizes : int list
(** The [fig_buffer] family's shared pools, from under 0.1 BDP (10 KB)
    to deep (8 BDP), each at Dynamic-Threshold alpha = 0.5, 1 and 2. *)

val fattree_ks : int list
(** The [fig_fattree] family's arities: k = 4 (16 hosts) and k = 8
    (128 hosts, 1040 flows). *)

val perf_dumbbell_ns : int list
(** N = 4, 32, 128, 512: the [perf_dumbbell] family. *)

(** {2 Lookup} *)

type entry = {
  name : string;
  doc : string;
  specs : unit -> Spec.t list;  (** Full-scale spec list. *)
}

val all : unit -> entry list
val names : unit -> string list
val find : string -> entry option

val select : string -> Spec.t list option
(** [select name] is the spec list of the family [name] if there is one,
    else the single spec called [name] in any family (spec names are
    unique across the registry), else [None]. *)
