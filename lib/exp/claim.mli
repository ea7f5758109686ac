(** Paper claims as data.

    A claim is one DT-DCTCP-vs-DCTCP comparison the reproduction stands
    on: a registry sweep, the metrics recorded from each run, one
    relation DT-DCTCP's value of a gated metric must bear to DCTCP's at
    every point of the sweep, and validity rules a run must pass before
    its numbers count. One evaluator serves every claim; its manifest is
    the claim's tracked [BENCH_<name>.json].

    Registry spec names read [<family>/<protocol>/<point>[/...]]. The
    protocol slug and the point, with its [=] dropped ([n=10] reads
    [n10]), key each recorded metric as [<metric>.<protocol>.<point>]. *)

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

type t = {
  name : string;  (** Also the [BENCH_<name>.json] section. *)
  title : string;
  params : (string * Obs.Json.t) list;
      (** Recorded between ["quick"] and ["protocols"], the protocol
          slugs in spec order. *)
  specs : quick:bool -> Spec.t list;
  metrics : metric list;  (** Table columns, in order. *)
  gate : metric;  (** One of [metrics]. *)
  rel : rel;
  dt : string;
  dctcp : string;
      (** Protocol slugs: at each point, [gate] of [dt] must be [rel]
          [gate] of [dctcp]. *)
  validity : (Runner.outcome -> string option) list;
      (** Each rule gives the reason a run cannot be scored. A failed run
          and a missing or NaN gated value are invalid under every
          claim. *)
}

val all : t list
(** [oscillation] (amplitude, [Lt]), [buffer] (trimmed amplitude,
    [Le]) and [fattree] (p99 FCT slowdown, [Le]). *)

type status = Holds | Fails | Invalid

type verdict = {
  claim : string;
  point : string;
  status : status;
  detail : string;
      (** The compared values, or why the point cannot be scored. *)
}

val verdict_to_string : verdict -> string
(** ["<claim> <point>: holds|fails|invalid (...)"]. *)

val judge : t -> Runner.outcome array -> verdict list (* dtlint: test-only: synthetic outcomes *)
(** One verdict per point, in spec order; a single [Invalid] verdict
    when there are no runs. *)

type report = {
  table : Stats.Table.t;  (** One row per run, one column per metric. *)
  verdicts : verdict list;
  manifest : Obs.Manifest.t;
      (** Named [bench.<name>]; the seed is the runs' seed, [events]
          their sum, [metrics] every recorded value. *)
}

val evaluate : ?jobs:int -> quick:bool -> t -> report
(** Runs [t.specs ~quick] through {!Runner.run} [~analyze:true] and
    judges the outcomes. *)
