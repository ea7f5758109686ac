(** Declarative fault plans.

    A plan describes every non-ideality injected into one link (in
    practice the bottleneck port of a scenario's topology): down/up
    windows ("flaps"), seeded Bernoulli packet loss on the wire,
    per-packet delay jitter, mid-run rate-degradation windows, and
    ECN-mark suppression. Plans are pure data with a strict JSON
    round-trip, so they embed in {b Exp.Spec} and in run manifests; the
    randomness they call for is drawn by {b Fault.Injector} from a
    dedicated stream derived from the spec seed, never here.

    All spans are relative to the instant the injector is attached
    (simulation start in the stock workloads). *)

type flap = { down_at : Engine.Time.span; up_at : Engine.Time.span }
(** The link goes down at [down_at] and comes back at [up_at]. *)

type rate_change = {
  at : Engine.Time.span;
  until : Engine.Time.span;
  factor : float;  (** Rate multiplier over the window, e.g. 0.5. *)
}

type suppression =
  | Keep_marks  (** ECN works normally (the default). *)
  | Suppress_all  (** "Non-ECN switch": every CE mark is discarded. *)
  | Suppress_window of { at : Engine.Time.span; until : Engine.Time.span }
  | Suppress_prob of float  (** Each would-be mark is lost with probability p. *)

type t = {
  flaps : flap list;
  loss_rate : float;  (** Per-packet Bernoulli wire loss in [0, 1). *)
  jitter_max : Engine.Time.span;
      (** Extra per-packet delivery delay drawn uniformly from
          [[0, jitter_max]]; 0 disables jitter. May reorder packets. *)
  rate_changes : rate_change list;
  suppression : suppression;
}

val none : t
(** The no-fault plan; use with record update to enable one channel:
    [{ Fault.Plan.none with loss_rate = 0.01 }]. *)

val validate : t -> (unit, string) result
(** Checks ranges and that flap / rate-change windows are chronological
    and disjoint. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Strict: missing or mistyped fields and invalid plans are errors. *)

val to_string : t -> string
