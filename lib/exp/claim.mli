(** The reproduction's evaluation as data.

    A claim declares a registry sweep, the metrics recorded from each run
    and validity rules a run must pass before its numbers count. A gated
    claim adds one relation DT-DCTCP's value of a gated metric must bear
    to DCTCP's at every point of the sweep; a gate-less one tabulates and
    records. One evaluator serves every claim, and [dtsim claim] runs
    every simulation of the evaluation through it; its manifest is the
    claim's [BENCH_<name>.json], and the claim's epilogue renders what its
    table cannot show.

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

type status = Holds | Fails | Invalid

type verdict = {
  claim : string;
  point : string;  (** [-] for a run with no point. *)
  status : status;
  detail : string;
      (** The compared values, or why the point cannot be scored. *)
}

type run = {
  protocol : string;
  point : string;
  outcome : Runner.outcome;
  values : (string * float) list;  (** Each metric's value, where it exists. *)
}

type t = {
  name : string;  (** Also the [BENCH_<name>.json] section. *)
  title : string;
  params : (string * Obs.Json.t) list;
      (** Recorded between ["quick"] and ["protocols"], the protocol
          slugs in spec order. *)
  specs : unit -> Spec.t list;
      (** Full scale, taken from registry families by name; {!quick}
          maps it to the [--quick] run. *)
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
  serial : bool;
      (** {!evaluate} runs the specs one at a time whatever [~jobs] asks,
          for a claim that records wall-clock rates. *)
  epilogue : report -> string;
      (** Text printed under the claim's table: what is not a per-run
          value (a normalization, a ratio between protocols, an onset, a
          plot), read from the report by label, and fixed notes. [""]
          for none. *)
}

and report = {
  declared : t;
  runs : run list;  (** In the declaration's spec order. *)
  table : Stats.Table.t;  (** One row per run, one column per metric. *)
  verdicts : verdict list;
  manifest : Obs.Manifest.t;
      (** Named [bench.<name>]; the seed is the first run's seed,
          [events] the runs' sum, [metrics] every recorded value. *)
}

val quick : Spec.t -> Spec.t (* dtlint: test-only: the rule's edges *)
(** The one [--quick] rule, by workload, so the harness stays
    interactive:
    - long-lived: [warmup] and [measure] are halved, unless the fault
      plan has flaps or rate changes (absolute times a halved run could
      end before), which keep their windows;
    - fan-in: [repeats] becomes [max 1 (repeats / 2)];
    - dynamic: [duration] is halved;
    - convergence: [join_interval] and [hold] are halved;
    - fat tree: [time_cap] becomes 1 s, which censors RTO-bound
      stragglers (NewReno's, and one DCTCP flow at k = 8) but leaves
      every p99 as at the full 5 s.

    Halving is integer nanoseconds. Names, seeds and everything else are
    unchanged. *)

val label : Spec.t -> string * string (* dtlint: test-only: declaration checks *)
(** [(protocol, point)] of a spec, the point [""] when the name has none.
    A point with one parameter drops its [=] ([n=10] reads [n10]); one
    with several keeps them ([k1=35,k2=45]).
    @raise Invalid_argument on a name with no protocol. *)

(** {2 Declarations} *)

val all : t list
(** Every declaration, in the order [dtsim claim] runs them:
    - [fig1]: Figure 1's queue statistics at N = 10 and 100;
    - [sweep]: Figures 10-12, mean queue, its deviation, alpha and
      utilization over N = 10, 15, ..., 100;
    - [fig14], [fig15]: Incast goodput and timeouts, and scatter-gather
      completion time, over the fan-in;
    - [ablation_thresholds], [ablation_g], [ablation_policies],
      [ablation_testbed_labels]: the design-choice ablations;
    - [fluid]: the fluid model's mean queue, computed from each spec,
      beside the packet simulation's at N = 10, 30, 60, 100;
    - [spectrum]: the describing function's limit-cycle frequency ([-]
      where it predicts a stable equilibrium) beside the simulated
      queue's dominant frequency;
    - [d2tcp], [sack], [queue_buildup], [convergence]: the extension
      studies;
    - [robustness]: loss, flap, brownout and mark suppression; every
      recorded value must be finite;
    - [oscillation] (gated): streaming-analyzer amplitude, DT-DCTCP [Lt]
      DCTCP at N = 10, 30, 60;
    - [buffer] (gated): trimmed amplitude, [Le], on a shared
      Dynamic-Threshold pool;
    - [fattree] (gated): p99 FCT slowdown, [Le], on the k = 4 and 8 fat
      trees;
    - [perf] (serial): events/s of the [perf_dumbbell] family, the
      baseline behind [BENCH_perf.json]. *)

(** {2 Evaluation} *)

val verdict_to_string : verdict -> string
(** ["<claim> <point>: holds|fails|invalid (...)"]. *)

val judge : t -> Runner.outcome array -> verdict list (* dtlint: test-only: synthetic outcomes *)
(** In the order the outcomes first name each point: one verdict per
    point of a gated claim; one [Invalid] verdict per point with an
    invalid run of a gate-less claim; a single [Invalid] verdict when
    there are no runs. *)

val report : t -> quick:bool -> Runner.outcome array -> report (* dtlint: test-only: synthetic outcomes *)
(** Labels, tabulates, records and judges outcomes of [t.specs ()]
    ({!quick} of each when [quick]), in whatever order they come;
    [wall_clock_s] reads 0. *)

val evaluate : ?jobs:int -> quick:bool -> t -> report
(** Runs [t.specs ()] ({!quick} of each when [quick]) through
    {!Runner.run} [~analyze:t.analyze] ([~jobs:1] when [t.serial]) and
    reports on the outcomes. *)

val value : report -> string -> protocol:string -> point:string -> float option (* dtlint: test-only: epilogues read runs by label *)
(** [value r key ~protocol ~point]: the run's value of metric [key], as
    the epilogues read it; [None] when there is no such run or it has no
    such value.
    @raise Invalid_argument when [key] names no metric of the claim. *)
