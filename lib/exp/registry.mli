(** Named scenario catalogue.

    One place declaring the paper's operating points and every sweep the
    figure harness and [dtsim sweep] run, so the bench sections and the
    CLI execute literally the same {!Spec} values. The builders take the
    knobs --quick scales (durations and repeats); the registry {!entry}
    list applies full-scale defaults. *)

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

val sweep_ns : int list
(** N = 10, 15, ..., 100. *)

val fig_sweep_specs :
  ?ns:int list ->
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  unit ->
  Spec.t list

val oscillation_ns : int list
(** N = 10, 30, 60. *)

val oscillation_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list
(** Long-lived dumbbell at each of {!oscillation_ns} under seed 42, for
    {!sim_dctcp} and {!sim_dt}, named [oscillation/<dctcp|dt>/n=<N>]. *)

val incast_flow_counts : int list

(** Fan-in sweeps over {!incast_flow_counts} on the 1 Gbps testbed star,
    one spec per flow count and testbed operating point: *)

val fig_incast_specs : ?repeats:int -> unit -> Spec.t list
val fig_completion_specs : ?repeats:int -> unit -> Spec.t list

(** The ablations, on the long-lived dumbbell at N = 60 or the testbed
    star's Incast: *)

val threshold_ablation_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list

val g_ablation_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list

val policy_ablation_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list

val testbed_label_specs : ?repeats:int -> unit -> Spec.t list

(** Extensions beyond the paper: *)

val d2tcp_specs : ?repeats:int -> unit -> Spec.t list
val sack_specs : ?repeats:int -> unit -> Spec.t list

val queue_buildup_specs :
  ?duration:Engine.Time.span -> unit -> Spec.t list

val convergence_specs :
  ?join_interval:Engine.Time.span ->
  ?hold:Engine.Time.span ->
  unit ->
  Spec.t list

(** {2 Shared-buffer sizing study (extension)} *)

val bdp_bytes : int
(** One bandwidth-delay product of the simulated dumbbell: 10 Gbps x
    100 us / 8 = 125 KB. *)

val buffer_pool_sizes : int list
(** Default pool sweep, from under 0.1 BDP (10 KB) to deep (8 BDP). *)

val fig_buffer_specs :
  ?alphas:float list ->
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  unit ->
  Spec.t list
(** Long-lived dumbbell at 10 flows where the bottleneck switch draws
    every port from one Dynamic-Threshold pool, swept over
    {!buffer_pool_sizes} x [alphas] x the protocols [dctcp] and [dt-dctcp]
    (marking at fractions of the effective limit) and loss-based
    [newreno], named [fig_buffer/<protocol>/B=<bytes>/a=<alpha>]. *)

(** {2 Fat-tree fabric study (extension)} *)

val fattree_ks : int list
(** Default arity sweep: k = 4 (16 hosts) and k = 8 (128 hosts,
    1040 flows). *)

val fig_fattree_specs : ?time_cap:Engine.Time.span -> unit -> Spec.t list
(** The fabric at each of {!fattree_ks} under the testbed 1 Gbps DCTCP and
    DT-DCTCP operating points and loss-based NewReno, named
    [fig_fattree/<dctcp|dt-dctcp|newreno>/k=<k>]. *)

(** {2 Robustness sweeps}

    Faulted variants of the long-lived dumbbell (and one faulted
    Incast): every spec carries a {!Fault.Plan.t}, so these are the
    registry's only entries that exercise the injector. *)

val robust_loss_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list
(** Queue statistics and goodput vs seeded Bernoulli loss
    (p = 0.0001 to 0.05) at N = 40, DCTCP vs DT-DCTCP. *)

val robust_flap_specs : unit -> Spec.t list
(** Bottleneck down/up flap plus a half-rate "brownout" window at N = 40,
    with trace sampling on so the recovery transient is visible. Its
    fault times sit inside the default 100/200 ms windows, so the windows
    are not a knob. *)

val robust_suppress_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list
(** Stability vs flow count (N = 10, 40, 70, 100) when the switch drops
    half its ECN marks. *)

(** {2 Spectral validation} *)

val spectrum_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list
(** The long-RTT dumbbell (R0 = 1 ms, min-RTO 50 ms, queue sampled every
    50 us; default windows 200/400 ms) at N = 60 and 100, for
    {!sim_dctcp} and {!sim_dt}, named [spectrum/<protocol>/n=<N>]. *)

(** {2 Simulator throughput} *)

val perf_dumbbell_specs :
  ?warmup:Engine.Time.span -> ?measure:Engine.Time.span -> unit -> Spec.t list
(** The events/s baseline behind [BENCH_perf.json]: the long-lived
    dumbbell under {!sim_dt} and seed 11 at N = 4, 32, 128 and 512, named
    [perf_dumbbell/dt-dctcp/n=<N>]. The bottleneck buffer is 250 packets,
    or 4N packets above N = 128. Default windows 100/100 ms. *)

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
