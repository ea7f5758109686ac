(** Declarative scenario descriptions.

    A spec is everything needed to reproduce one simulation run: the
    transport under test (with its marking parameters), the workload
    variant with its full configuration (topology knobs, durations,
    seed), and a display name. Specs round-trip through JSON via
    {!Obs.Json}, and {!Runner} stores each run's spec inside its
    {!Obs.Manifest}, so any published result can be reconstructed
    bit-for-bit from its manifest alone. *)

type protocol =
  | Dctcp of { g : float; k_bytes : int }
  | Dt_dctcp of { g : float; k1_bytes : int; k2_bytes : int }
  | Reno
  | Ecn_reno of { k_bytes : int }
  | Newreno
      (** Loss-based NewReno ({!Dctcp.Protocol.newreno}): no marking,
          halves at most once per loss episode. *)
  | Dctcp_scaled of { g : float; k_frac : float }
      (** DCTCP with [K = k_frac x effective buffer limit] — thresholds
          ride the shared pool's moving capacity. *)
  | Dt_dctcp_scaled of { g : float; k1_frac : float; k2_frac : float }
      (** DT-DCTCP with the hysteresis band at fractions of the
          effective limit. *)

type workload =
  | Longlived of Workloads.Longlived.config
  | Fanin of Workloads.Fanin.config
      (** Star fan-in; its JSON [kind] is the config's scenario
          (["incast"], ["completion"] or ["deadline"]), and the JSON holds
          that scenario's keys only: on reading back, fields the
          scenario does not name take its defaults. *)
  | Dynamic of Workloads.Dynamic.config
  | Convergence of Workloads.Convergence.config
  | Fattree of Workloads.Fattree.config
      (** Fat-tree fabric FCT-slowdown study (runs on
          {!Net.Topology.fat_tree}, not the dumbbell/star). *)

type t = {
  name : string;
  protocol : protocol;
  workload : workload;
  faults : Fault.Plan.t option;
      (** Optional fault plan for the scenario's bottleneck link. [None]
          means no injector is ever constructed — the run (and the
          spec's JSON, which omits the key) is bit-identical to a
          pre-fault-injection build. *)
  buffer : Net.Buffer_mgr.config;
      (** The bottleneck switch's memory model. [Static] (the default)
          keeps every queue's private fixed capacity and serializes to
          nothing — the JSON omits the key, so pre-existing specs and
          manifests stay bit-stable. [Dynamic_threshold] replaces the
          workload config's [buffer_bytes] at the bottleneck switch
          with one shared pool. *)
}

val protocol_name : protocol -> string
(** Stable identifier, also the JSON [kind] tag: ["dctcp"],
    ["dt-dctcp"], ["reno"], ["ecn-reno"], ["newreno"], ["dctcp-scaled"],
    ["dt-dctcp-scaled"]. *)

val workload_name : workload -> string
(** JSON [kind] tag: ["longlived"], ["incast"], ... *)

val protocol_of : protocol -> Dctcp.Protocol.t
(** Instantiate the transport bundle a scenario deploys. *)

val seed : t -> int64
(** The RNG seed of the underlying workload config. *)

val with_seed : int64 -> t -> t
(** Functional update of the workload seed (for repeat sweeps). *)

val to_json : t -> Obs.Json.t
(** Spans are integer nanoseconds; seeds are decimal strings (the
    {!Obs.Manifest} convention, so full-width int64 seeds survive JSON
    readers without 64-bit integers). *)

val of_json : Obs.Json.t -> (t, string) result
(** Strict inverse of {!to_json}: every config field is required, so a
    spec written by an older build fails loudly instead of silently
    filling defaults. The exceptions are ["faults"] (absence means
    {!t.faults}[ = None]) and ["buffer"] (absence means [Static]) —
    older specs predate both fields. *)

val override : t -> (string * Obs.Json.t) list -> (t, string) result
(** [override t sets] replaces, in order, the value at each dotted path
    of [to_json t] (["workload.n_flows"], ["protocol"], ...) and parses
    the edited tree once with {!of_json}. A path that is not already in
    the tree is an [Error] naming it, so a typo is never silently
    dropped; a value of the wrong type is {!of_json}'s error. *)

val equal : t -> t -> bool
(** Field-complete equality via the canonical JSON form (floats compare
    by bit pattern). *)
