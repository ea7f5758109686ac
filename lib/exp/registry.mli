(** Named scenario catalogue.

    One place declaring the paper's operating points and every sweep the
    figure harness and [dtsim sweep] run, so the bench sections and the
    CLI execute literally the same {!Spec} values. The builders take the
    knobs the bench scales in --quick mode (durations, repeats, flow
    counts); the registry {!entry} list applies full-scale defaults. *)

(** {2 Protocol operating points} *)

val sim_dctcp : Spec.protocol
(** Simulation sections: K = 40 pkt, g = 1/16 (Section VI-A). *)

val sim_dt : Spec.protocol
(** DT-DCTCP split (K1, K2) = (30, 50) pkt. The testbed points of
    Section VI-B (K = 32 KB; (start, stop) = (28, 34), (30, 34) and the
    swapped (34, 28) KB of ablation E) stay inside the registry. *)

(** {2 Sweep builders} *)

val longlived_config :
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  ?trace_sampling:Engine.Time.span ->
  n:int ->
  unit ->
  Workloads.Longlived.config

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

val incast_flow_counts : int list

val fig_incast_specs :
  ?flow_counts:int list -> ?repeats:int -> unit -> Spec.t list

val fig_completion_specs :
  ?flow_counts:int list -> ?repeats:int -> unit -> Spec.t list

val threshold_ablation_specs :
  ?n:int ->
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  unit ->
  Spec.t list

val g_ablation_specs :
  ?n:int ->
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  unit ->
  Spec.t list

val policy_ablation_specs :
  ?n:int ->
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  unit ->
  Spec.t list

val testbed_label_specs :
  ?flow_counts:int list -> ?repeats:int -> unit -> Spec.t list

val d2tcp_specs : ?flow_counts:int list -> ?repeats:int -> unit -> Spec.t list

val sack_specs : ?flow_counts:int list -> ?repeats:int -> unit -> Spec.t list

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

val buffer_protocols : (string * Spec.protocol) list
(** Slugged protocol points of the buffer study: the two scaled ECN
    transports plus loss-based NewReno. *)

val fig_buffer_specs :
  ?pool_sizes:int list ->
  ?alphas:float list ->
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  ?n:int ->
  unit ->
  Spec.t list
(** Long-lived dumbbell at [n] flows (default 10) where the bottleneck
    switch draws every port from one Dynamic-Threshold pool, swept over
    [pool_sizes] x [alphas] x {!buffer_protocols}. *)

(** {2 Fat-tree fabric study (extension)} *)

val fattree_protocols : (string * Spec.protocol) list
(** Slugged protocol points of the fabric study: the testbed 1 Gbps
    DCTCP and DT-DCTCP operating points plus loss-based NewReno. *)

val fattree_ks : int list
(** Default arity sweep: k = 4 (16 hosts) and k = 8 (128 hosts,
    1040 flows). *)

val fig_fattree_specs :
  ?ks:int list ->
  ?incast_bytes:int ->
  ?long_bytes:int ->
  ?time_cap:Engine.Time.span ->
  unit ->
  Spec.t list

(** {2 Robustness sweeps}

    Faulted variants of the long-lived dumbbell (and one faulted
    Incast): every spec carries a {!Fault.Plan.t}, so these are the
    registry's only entries that exercise the injector. *)

val robust_loss_rates : float list

val robust_loss_specs :
  ?loss_rates:float list ->
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  ?n:int ->
  unit ->
  Spec.t list
(** Queue statistics and goodput vs seeded Bernoulli loss, DCTCP vs
    DT-DCTCP. *)

val robust_flap_specs :
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  ?n:int ->
  unit ->
  Spec.t list
(** Bottleneck down/up flap plus a half-rate "brownout" window, with
    trace sampling on so the recovery transient is visible. *)

val robust_suppress_specs :
  ?ns:int list ->
  ?warmup:Engine.Time.span ->
  ?measure:Engine.Time.span ->
  unit ->
  Spec.t list
(** Stability vs flow count when the switch drops half its ECN marks. *)

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
