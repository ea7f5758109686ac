(** The reproduction's evaluation as data.

    A claim declares a registry sweep, the metrics recorded from each run
    and validity rules a run must pass before its numbers count. A gated
    claim adds one relation DT-DCTCP's value of a gated metric must bear
    to DCTCP's at every point of the sweep; a gate-less one tabulates and
    records. One evaluator serves every claim, and it is the only way the
    figure harness runs a simulation outside its perf section; its
    manifest is the claim's [BENCH_<name>.json].

    Registry spec names read [<family>/<protocol>[/<point>[/...]]]. The
    protocol slug and the point ({!label}) label each run and key each
    recorded metric as [<metric>.<protocol>.<point>]
    ([<metric>.<protocol>] for a name with no point). Everything reads
    runs by that label, never by their position in the sweep. *)

type rel =
  | Lt  (** DT-DCTCP strictly below DCTCP. *)
  | Le  (** DT-DCTCP at or below DCTCP. *)

type metric = {
  key : string;
  digits : int;  (** Decimals shown in the table and the verdicts. *)
  read : Runner.outcome -> float option;
      (** [None]: the quantity does not exist for this run and is not
          recorded (e.g. an amplitude without a marking band). *)
}

type gate = {
  metric : metric;  (** One of the claim's [metrics]. *)
  rel : rel;
  dt : string;
  dctcp : string;
      (** Protocol slugs: at each point, [metric] of [dt] must be [rel]
          [metric] of [dctcp]. *)
}

type t = {
  name : string;  (** Also the [BENCH_<name>.json] section. *)
  title : string;
  params : (string * Obs.Json.t) list;
      (** Recorded between ["quick"] and ["protocols"], the protocol
          slugs in spec order. *)
  specs : quick:bool -> Spec.t list;
  metrics : metric list;  (** Table columns, in order. *)
  gate : gate option;  (** [None]: the claim compares nothing. *)
  validity : (Runner.outcome -> string option) list;
      (** Each rule gives the reason a run cannot be scored. A failed run
          is invalid under every claim, and under a gated claim so is a
          missing or NaN gated value. *)
  analyze : bool;
      (** Runs carry the streaming analysis block ({!Runner.run}
          [~analyze]), which metrics that read it need. The analyzer
          costs about a fifth of a long-lived run's CPU. *)
}

val scaled : quick:bool -> Engine.Time.span -> Engine.Time.span
(** The one [--quick] rule: quick mode halves every simulated length and
    every repeat count. *)

val series : Runner.outcome -> float array option
(** A long-lived run's bottleneck queue samples in packets, when it
    sampled them. *)

val label : Spec.t -> string * string (* dtlint: test-only: declaration checks *)
(** [(protocol, point)] of a spec, the point [""] when the name has none.
    A point with one parameter drops its [=] ([n=10] reads [n10]); one
    with several keeps them ([k1=35,k2=45]).
    @raise Invalid_argument on a name with no protocol. *)

(** {2 Declarations} *)

val oscillation : t
(** Gated: streaming-analyzer amplitude, DT-DCTCP [Lt] DCTCP at
    N = 10, 30, 60. *)

val buffer : t
(** Gated: trimmed amplitude, [Le], on a shared Dynamic-Threshold pool. *)

val fattree : t
(** Gated: p99 FCT slowdown, [Le], on the k = 4 and 8 fat trees. *)

val fig1 : t
(** Figure 1's queue statistics at N = 10 and 100. *)

val sweep : t
(** Figures 10-12: mean queue, its deviation, alpha and utilization over
    N = 10, 15, ..., 100. *)

val fig14 : t
(** Figure 14: Incast goodput and timeouts over the fan-in. *)

val fig15 : t
(** Figure 15: scatter-gather completion time over the fan-in. *)

val ablation_thresholds : t
val ablation_g : t
val ablation_policies : t
val ablation_testbed_labels : t

val fluid : t
(** The fluid model's mean queue, computed from each spec, beside the
    packet simulation's at N = 10, 30, 60, 100. *)

val spectrum : t
(** The describing function's limit-cycle frequency, computed from each
    spec ([-] where it predicts a stable equilibrium), beside the
    simulated queue's dominant frequency. *)

val d2tcp : t
val sack : t
val queue_buildup : t
val convergence : t

val robustness : t
(** Loss, flap, brownout and mark suppression; every recorded value must
    be finite. *)

val all : t list (* dtlint: test-only: declaration checks *)
(** Every declaration. *)

(** {2 Evaluation} *)

type status = Holds | Fails | Invalid

type verdict = {
  claim : string;
  point : string;  (** [-] for a run with no point. *)
  status : status;
  detail : string;
      (** The compared values, or why the point cannot be scored. *)
}

val verdict_to_string : verdict -> string
(** ["<claim> <point>: holds|fails|invalid (...)"]. *)

val judge : t -> Runner.outcome array -> verdict list (* dtlint: test-only: synthetic outcomes *)
(** In the order the outcomes first name each point: one verdict per
    point of a gated claim; one [Invalid] verdict per point with an
    invalid run of a gate-less claim; a single [Invalid] verdict when
    there are no runs. *)

type run = {
  protocol : string;
  point : string;
  outcome : Runner.outcome;
  values : (string * float) list;  (** Each metric's value, where it exists. *)
}

type report = {
  declared : t;
  runs : run list;  (** In the declaration's spec order. *)
  table : Stats.Table.t;  (** One row per run, one column per metric. *)
  verdicts : verdict list;
  manifest : Obs.Manifest.t;
      (** Named [bench.<name>]; the seed is the first run's seed,
          [events] the runs' sum, [metrics] every recorded value. *)
}

val report : t -> quick:bool -> Runner.outcome array -> report (* dtlint: test-only: synthetic outcomes *)
(** Labels, tabulates, records and judges outcomes of [t.specs ~quick],
    in whatever order they come; [wall_clock_s] reads 0. *)

val evaluate : ?jobs:int -> quick:bool -> t -> report
(** Runs [t.specs ~quick] through {!Runner.run} [~analyze:t.analyze] and
    reports on the outcomes. *)

val find : report -> protocol:string -> point:string -> run option

val value : report -> string -> protocol:string -> point:string -> float option
(** [value r key ~protocol ~point]: the run's value of metric [key];
    [None] when there is no such run or it has no such value.
    @raise Invalid_argument when [key] names no metric of the claim. *)
