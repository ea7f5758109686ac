module Json = Obs.Json
module Time = Engine.Time
module L = Workloads.Longlived
module F = Workloads.Fanin

type rel = Lt | Le

type metric = {
  key : string;
  digits : int;
  read : Runner.outcome -> float option;
}

type gate = { metric : metric; rel : rel; dt : string; dctcp : string }

type t = {
  name : string;
  title : string;
  params : (string * Json.t) list;
  specs : quick:bool -> Spec.t list;
  metrics : metric list;
  gate : gate option;
  validity : (Runner.outcome -> string option) list;
  analyze : bool;
}

type status = Holds | Fails | Invalid

type verdict = {
  claim : string;
  point : string;
  status : status;
  detail : string;
}

type run = {
  protocol : string;
  point : string;
  outcome : Runner.outcome;
  values : (string * float) list;
}

type report = {
  declared : t;
  runs : run list;
  table : Stats.Table.t;
  verdicts : verdict list;
  manifest : Obs.Manifest.t;
}

let assoc key pairs =
  List.find_map
    (fun (k, v) -> if String.equal k key then Some v else None)
    pairs

(* --- the --quick rule --- *)

let scaled ~quick span =
  if quick then Time.span_of_int_ns (Time.span_to_int_ns span / 2) else span

let scaled_count ~quick n = if quick then Int.max 1 (n / 2) else n

(* Long-lived specs at the dumbbell's 100/200 ms warm-up and measurement
   windows. *)
let longlived_windows build ~quick =
  build
    ~warmup:(scaled ~quick (Time.span_of_ms 100.))
    ~measure:(scaled ~quick (Time.span_of_ms 200.))

(* --- reading a run --- *)

let metric key digits read = { key; digits; read }

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

(* A quantity of the streaming analysis, if the run carries the block. *)
let analysis path (o : Runner.outcome) =
  List.fold_left
    (fun j k -> Option.bind j (Json.member k))
    o.manifest.Obs.Manifest.analysis path
  |> fun j -> Option.bind j number

(* A cycle quantity. Without a marking band the cycle detector is off,
   so the run has none. *)
let cycle key o =
  Option.bind
    (analysis [ "config"; "band_low_bytes" ] o)
    (fun _ -> analysis [ "cycles"; key ] o)

let recorded key (o : Runner.outcome) =
  assoc key o.manifest.Obs.Manifest.metrics

let payload (o : Runner.outcome) =
  match o.result with Outcome.Done p -> Some p | Outcome.Failed _ -> None

let longlived f o =
  match payload o with Some (Outcome.Longlived r) -> Some (f r) | _ -> None

let fabric f o =
  match payload o with Some (Outcome.Fattree r) -> Some (f r) | _ -> None

let ll key digits f = metric key digits (longlived f)
let count key f = ll key 0 (fun r -> float_of_int (f r))
let mean_queue = ll "mean_queue" 1 (fun r -> r.L.mean_queue_pkts)
let std_queue digits = ll "std_queue" digits (fun r -> r.L.std_queue_pkts)
let max_queue = ll "max_queue" 0 (fun r -> r.L.max_queue_pkts)
let alpha = ll "alpha" 3 (fun r -> r.L.mean_alpha)
let util = ll "util" 3 (fun r -> r.L.utilization)
let drops = count "drops" (fun r -> r.L.drops)

(* [<family>/<protocol>[/<point>[/...]]] -> (protocol, point), the point
   [""] when the name has none. A one-parameter point drops its '='
   ([n=10] reads [n10]); a point of several keeps them all, so
   [k1=35,k2=45] stays readable. *)
let label (spec : Spec.t) =
  match String.split_on_char '/' spec.name with
  | _ :: proto :: point :: _ -> (
      match String.split_on_char '=' point with
      | [ name; value ] -> (proto, name ^ value)
      | _ -> (proto, point))
  | [ _; proto ] -> (proto, "")
  | _ ->
      invalid_arg
        ("Exp.Claim: spec " ^ spec.name
       ^ " is not <family>/<protocol>[/<point>]")

let shown point = if String.equal point "" then "-" else point

let key metric proto point =
  String.concat "."
    (metric :: proto :: (if String.equal point "" then [] else [ point ]))

let distinct xs =
  List.fold_left
    (fun acc x -> if List.exists (String.equal x) acc then acc else x :: acc)
    [] xs
  |> List.rev

(* --- the gated claims --- *)

let analysed key digits path = metric key digits (analysis path)
let occ_std = analysed "occ_std_pkts" 1 [ "occupancy"; "std_pkts" ]
let cycles = metric "cycles" 0 (cycle "count")
let amp_mean = metric "amp_mean_pkts" 1 (cycle "amp_mean_pkts")
let ints xs = Json.List (List.map (fun x -> Json.Int x) xs)

(* The paper's headline: the hysteresis band keeps DT-DCTCP's peak-trough
   amplitude strictly below DCTCP's at every N. *)
let oscillation =
  {
    name = "oscillation";
    title = "Oscillation: streaming-analyzer N-sweep (DCTCP vs DT-DCTCP)";
    params = [ ("flow_counts", ints Registry.oscillation_ns) ];
    specs =
      longlived_windows (fun ~warmup ~measure ->
          Registry.oscillation_specs ~warmup ~measure ());
    metrics =
      [
        cycles;
        amp_mean;
        metric "period_ms" 3 (fun o ->
            Option.map
              (fun s -> s *. 1e3)
              (cycle "period_mean_s" o));
        occ_std;
        analysed "flip_rate_hz" 0 [ "marking"; "flip_rate_hz" ];
        analysed "sync_mean" 3 [ "sync"; "index_mean" ];
      ];
    gate = Some { metric = amp_mean; rel = Lt; dt = "dt"; dctcp = "dctcp" };
    validity = [];
    analyze = true;
  }

(* The per-cycle mean amplitude with the single largest cycle dropped.
   The analyzer sees the run from t = 0, so the warm-up fill counts as
   one full-band cycle; dropping the largest removes that one-off from
   both protocols alike. Fewer than two cycles read 0. *)
let amp_trim =
  metric "amp_trim_pkts" 1 (fun o ->
      match
        ( cycles.read o,
          amp_mean.read o,
          cycle "amp_max_pkts" o )
      with
      | Some n, Some mean, Some max ->
          Some (if n >= 2. then ((mean *. n) -. max) /. (n -. 1.) else 0.)
      | _ -> None)

let rejects_counted o =
  match recorded "buffer.pool_rejects" o with
  | Some v when v >= 0. -> None
  | Some v -> Some (Printf.sprintf "negative pool rejects %g" v)
  | None -> Some "no buffer.pool_rejects recorded"

(* The easing survives a shared Dynamic-Threshold pool (alpha = 1) from
   under 0.1 BDP to 8 BDP. *)
let buffer =
  let pool key = metric key 0 (recorded ("buffer." ^ key)) in
  let alpha = 1.0 in
  {
    name = "buffer";
    title = "Buffer sizing: shared Dynamic-Threshold pool (alpha = 1)";
    params =
      [
        ("pool_sizes", ints Registry.buffer_pool_sizes);
        ("alpha", Json.Float alpha);
        ("bdp_bytes", Json.Int Registry.bdp_bytes);
      ];
    specs =
      longlived_windows (fun ~warmup ~measure ->
          Registry.fig_buffer_specs ~alphas:[ alpha ] ~warmup ~measure ());
    metrics =
      [
        cycles;
        amp_mean;
        amp_trim;
        occ_std;
        drops;
        pool "pool_rejects";
        pool "pool_high_water";
        util;
      ];
    gate =
      Some { metric = amp_trim; rel = Le; dt = "dt-dctcp"; dctcp = "dctcp" };
    validity = [ rejects_counted ];
    analyze = true;
  }

let slowdown key f = metric ("slowdown_" ^ key) 2 (fabric f)
let p50 = slowdown "p50" (fun r -> r.Workloads.Fattree.slowdown_p50)
let p95 = slowdown "p95" (fun r -> r.Workloads.Fattree.slowdown_p95)
let p99 = slowdown "p99" (fun r -> r.Workloads.Fattree.slowdown_p99)
let p999 = slowdown "p999" (fun r -> r.Workloads.Fattree.slowdown_p999)

let routed o =
  match fabric (fun r -> r.Workloads.Fattree.no_route_drops) o with
  | Some n when n > 0 ->
      Some (Printf.sprintf "%d no-route drops (fabric miswired)" n)
  | _ -> None

let tails_scored o =
  List.find_map
    (fun m ->
      match m.read o with
      | Some v when Float.is_finite v && v >= 1. -> None
      | Some v -> Some (Printf.sprintf "%s %g is not finite and >= 1" m.key v)
      | None -> Some (m.key ^ " missing"))
    [ p50; p95; p99; p999 ]

(* The easing carried onto the k-ary fat tree: DT-DCTCP's p99 FCT
   slowdown at or below DCTCP's at k = 4 and 8. --quick caps simulated
   time at 1 s instead of 5 s, which censors RTO-bound stragglers (NewReno's
   and one DCTCP flow at k = 8) but leaves every p99 as in full mode. *)
let fattree =
  let count key f = metric key 0 (fabric (fun r -> float_of_int (f r))) in
  {
    name = "fattree";
    title = "Fat-tree fabric: FCT slowdown over ECMP";
    params = [ ("ks", ints Registry.fattree_ks) ];
    specs =
      (fun ~quick ->
        if quick then
          Registry.fig_fattree_specs ~time_cap:(Time.span_of_sec 1.) ()
        else Registry.fig_fattree_specs ());
    metrics =
      [
        p50;
        p95;
        p99;
        p999;
        slowdown "mean" (fun r -> r.Workloads.Fattree.slowdown_mean);
        slowdown "max" (fun r -> r.Workloads.Fattree.slowdown_max);
        count "flows" (fun r -> r.Workloads.Fattree.flows_total);
        count "timeouts" (fun r -> r.Workloads.Fattree.timeouts);
        count "incomplete" (fun r -> r.Workloads.Fattree.incomplete);
      ];
    gate = Some { metric = p99; rel = Le; dt = "dt-dctcp"; dctcp = "dctcp" };
    validity = [ routed; tails_scored ];
    analyze = false;
  }

(* --- the paper's figures, its ablations and the extension studies ---

   Gate-less claims: each tabulates and records one row per run and
   gates nothing. What is not a per-run value (a normalization, a ratio
   between protocols, an onset, a plot) is left to whoever prints the
   report. *)

let gateless ?(params = []) ?(validity = []) name title specs metrics =
  {
    name;
    title;
    params;
    specs;
    metrics;
    gate = None;
    validity;
    analyze = false;
  }

let queue_stats = [ mean_queue; std_queue 2; alpha; util ]

(* The bottleneck occupancy series in packets, when the run sampled it. *)
let series o =
  match longlived (fun r -> r.L.queue_series) o with
  | Some (Some s) -> Some (Array.map snd s)
  | _ -> None

let peak_to_peak =
  metric "peak_to_peak" 0 (fun o ->
      Option.map
        (fun s ->
          Array.fold_left Float.max neg_infinity s
          -. Array.fold_left Float.min infinity s)
        (series o))

let fig1 =
  gateless "fig1"
    "Figure 1: queue at the switch, DCTCP vs DT-DCTCP, N=10 and N=100"
    (longlived_windows (fun ~warmup ~measure ->
         Registry.fig_queue_specs ~warmup ~measure ()))
    [ mean_queue; std_queue 2; max_queue; peak_to_peak; util ]

let sweep =
  gateless "sweep"
    "Figures 10-12: dumbbell sweep N=10..100 (10 Gbps, RTT 100us, g=1/16)"
    ~params:[ ("flow_counts", ints Registry.sweep_ns) ]
    (longlived_windows (fun ~warmup ~measure ->
         Registry.fig_sweep_specs ~warmup ~measure ()))
    queue_stats

let fanin pick (o : Runner.outcome) =
  match payload o with Some (Outcome.Fanin r) -> pick r | _ -> None

let goodput f = fanin (function F.Goodput r -> Some (f r) | _ -> None)
let completion f =
  fanin (function F.Completion_time r -> Some (f r) | _ -> None)
let deadlines f = fanin (function F.Deadlines_met r -> Some (f r) | _ -> None)
let goodput_mbps =
  metric "goodput_mbps" 1 (goodput (fun r -> r.F.mean_goodput_bps /. 1e6))

let timeouts_per_run =
  metric "timeouts_per_run" 1 (goodput (fun r -> r.F.timeouts_per_run))

(* The queries a fan-in row averages over. *)
let queries =
  metric "queries" 0 (fun (o : Runner.outcome) ->
      match o.spec.Spec.workload with
      | Spec.Fanin c -> Some (float_of_int c.F.repeats)
      | _ -> None)

let fig14 =
  gateless "fig14"
    "Figure 14: Incast, 64KB per worker, 1 Gbps star, 128KB buffer"
    ~params:[ ("flow_counts", ints Registry.incast_flow_counts) ]
    (fun ~quick ->
      Registry.fig_incast_specs ~repeats:(scaled_count ~quick 20) ())
    [ goodput_mbps; timeouts_per_run; queries ]

let fig15 =
  gateless "fig15" "Figure 15: completion time of 1MB scattered over n workers"
    ~params:[ ("flow_counts", ints Registry.incast_flow_counts) ]
    (fun ~quick ->
      Registry.fig_completion_specs ~repeats:(scaled_count ~quick 20) ())
    [
      metric "completion_ms" 2
        (completion (fun r -> r.F.mean_completion_s *. 1e3));
      metric "max_ms" 2 (completion (fun r -> r.F.max_completion_s *. 1e3));
      queries;
    ]

let ablation_thresholds =
  gateless "ablation_thresholds"
    "Ablation A: DT-DCTCP threshold placement at N=60 (K=40 equivalent)"
    (longlived_windows (fun ~warmup ~measure ->
         Registry.threshold_ablation_specs ~warmup ~measure ()))
    queue_stats

let ablation_g =
  gateless "ablation_g" "Ablation B: EWMA gain g at N=60"
    (longlived_windows (fun ~warmup ~measure ->
         Registry.g_ablation_specs ~warmup ~measure ()))
    [ mean_queue; std_queue 2 ]

let ablation_policies =
  gateless "ablation_policies"
    "Ablation C: marking-policy family at N=60 (same sender where applicable)"
    (longlived_windows (fun ~warmup ~measure ->
         Registry.policy_ablation_specs ~warmup ~measure ()))
    [ mean_queue; std_queue 2; util; drops ]

let ablation_testbed_labels =
  gateless "ablation_testbed_labels"
    "Ablation E: the two readings of the testbed's (K1=34KB, K2=28KB)"
    (fun ~quick ->
      Registry.testbed_label_specs ~repeats:(scaled_count ~quick 10) ())
    [ goodput_mbps ]

(* A long-lived run's model inputs: the flow count, the bottleneck in
   packets/s, the base RTT in seconds, and the protocol's gain and
   marking in packets ([None] for a protocol without a fixed band). *)
let model_inputs (o : Runner.outcome) =
  match o.spec.Spec.workload with
  | Spec.Longlived c ->
      let pkts b = float_of_int b /. float_of_int c.L.segment_bytes in
      let band =
        match o.spec.Spec.protocol with
        | Spec.Dctcp { g; k_bytes } ->
            Some (g, Fluid.Dctcp_fluid.Single (pkts k_bytes))
        | Spec.Dt_dctcp { g; k1_bytes; k2_bytes } ->
            Some (g, Fluid.Dctcp_fluid.Double (pkts k1_bytes, pkts k2_bytes))
        | _ -> None
      in
      Option.map
        (fun (g, marking) ->
          ( c.L.n_flows,
            c.L.bottleneck_rate_bps /. (8. *. float_of_int c.L.segment_bytes),
            Time.span_to_sec c.L.rtt,
            g,
            marking ))
        band
  | _ -> None

(* The fluid model (Eqs. 1-3) at the run's operating point: its mean
   queue after a 50 ms transient of a 150 ms integration. *)
let fluid_mean_queue =
  metric "fluid_mean_queue" 1 (fun o ->
      Option.map
        (fun (n, c, r0, g, marking) ->
          let p = Fluid.Dctcp_fluid.make ~n ~c ~r0 ~g ~marking () in
          fst
            (Fluid.Dctcp_fluid.queue_stats
               (Fluid.Dctcp_fluid.simulate p ~t_end:0.15 ())
               ~discard:0.05))
        (model_inputs o))

let fluid =
  gateless "fluid" "Ablation D: fluid model (Eqs. 1-3) vs packet simulation"
    (longlived_windows (fun ~warmup ~measure ->
         Registry.fig_sweep_specs ~ns:[ 10; 30; 60; 100 ] ~warmup ~measure ()))
    [ fluid_mean_queue; mean_queue ]

(* The describing-function prediction (Theorems 1-2) at the run's
   operating point: the limit cycle's frequency in Hz, none when the
   loci do not meet (a stable equilibrium). *)
let df_freq_hz =
  let grids =
    {
      Control.Stability.default_grids with
      Control.Stability.w_points = 1200;
      x_points = 600;
    }
  in
  metric "df_freq_hz" 0 (fun o ->
      Option.bind (model_inputs o) (fun (n, c, r0, g, marking) ->
          let p = Control.Plant.params ~c ~n ~r0 ~g in
          match
            match marking with
            | Fluid.Dctcp_fluid.Single k -> Control.Stability.dctcp ~grids p ~k
            | Fluid.Dctcp_fluid.Double (k1, k2) ->
                Control.Stability.dt_dctcp ~grids p ~k1 ~k2
          with
          | Control.Stability.Oscillatory lc ->
              Some (lc.Control.Stability.omega /. (2. *. Float.pi))
          | Control.Stability.Stable -> None))

(* The queue series' dominant frequency, at the run's sampling rate. *)
let sim_freq_hz =
  metric "sim_freq_hz" 0 (fun (o : Runner.outcome) ->
      match (series o, o.spec.Spec.workload) with
      | Some samples, Spec.Longlived { L.trace_sampling = Some period; _ } ->
          Option.map
            (fun p -> p.Stats.Spectrum.frequency_hz)
            (Stats.Spectrum.dominant_frequency ~samples
               ~sample_rate_hz:(1. /. Time.span_to_sec period))
      | _ -> None)

let spectrum =
  gateless "spectrum"
    "Spectral validation: simulated oscillation frequency vs DF prediction \
     (R0 = 1 ms)"
    (fun ~quick ->
      Registry.spectrum_specs
        ~warmup:(scaled ~quick (Time.span_of_ms 200.))
        ~measure:(scaled ~quick (Time.span_of_ms 400.))
        ())
    [ df_freq_hz; sim_freq_hz; mean_queue; std_queue 1 ]

let d2tcp =
  gateless "d2tcp" "Extension: D2TCP (deadline-aware backoff) vs DCTCP"
    (fun ~quick -> Registry.d2tcp_specs ~repeats:(scaled_count ~quick 10) ())
    [
      metric "met_fraction" 3 (deadlines (fun r -> r.F.met_fraction));
      metric "p99_ms" 2 (deadlines (fun r -> r.F.p99_completion_s *. 1e3));
    ]

let sack =
  gateless "sack" "Extension: SACK vs go-back-N recovery in the Incast regime"
    (fun ~quick -> Registry.sack_specs ~repeats:(scaled_count ~quick 10) ())
    [ goodput_mbps; timeouts_per_run ]

let dynamic key digits f =
  metric key digits (fun o ->
      match payload o with Some (Outcome.Dynamic r) -> Some (f r) | _ -> None)

let queue_buildup =
  let us key f = dynamic key 0 (fun r -> f r *. 1e6) in
  gateless "queue_buildup"
    "Extension: queue buildup under mixed traffic (DCTCP paper sec. 3.3)"
    (fun ~quick ->
      Registry.queue_buildup_specs
        ~duration:(scaled ~quick (Time.span_of_ms 200.))
        ())
    [
      us "fct_p50_us" (fun r -> r.Workloads.Dynamic.fct_p50_s);
      us "fct_p99_us" (fun r -> r.Workloads.Dynamic.fct_p99_s);
      us "fct_max_us" (fun r -> r.Workloads.Dynamic.fct_max_s);
      dynamic "bg_gbps" 2 (fun r ->
          r.Workloads.Dynamic.background_throughput_bps /. 1e9);
      dynamic "mean_queue" 1 (fun r -> r.Workloads.Dynamic.mean_queue_pkts);
      dynamic "std_queue" 1 (fun r -> r.Workloads.Dynamic.std_queue_pkts);
    ]

let convergence =
  let steady key f =
    metric key 3 (fun o ->
        match payload o with
        | Some (Outcome.Convergence r) -> Some (f r)
        | _ -> None)
  in
  gateless "convergence"
    "Extension: convergence under flow churn (DCTCP paper's convergence test)"
    (fun ~quick ->
      let interval = scaled ~quick (Time.span_of_ms 400.) in
      Registry.convergence_specs ~join_interval:interval ~hold:interval ())
    [
      steady "jain" (fun r -> r.Workloads.Convergence.jain_steady);
      steady "util" (fun r -> r.Workloads.Convergence.utilization_steady);
    ]

let finite metrics o =
  List.find_map
    (fun m ->
      match m.read o with
      | Some v when not (Float.is_finite v) ->
          Some (Printf.sprintf "%s %g is not finite" m.key v)
      | _ -> None)
    metrics

(* Loss, a bottleneck flap and brownout, and a switch that drops half
   its ECN marks, each against the fault-free operating points. The
   flap plan's event times sit inside the default 100/200 ms windows, so
   its runs keep full length under --quick. *)
let robustness =
  let metrics =
    [
      mean_queue;
      std_queue 1;
      max_queue;
      util;
      count "timeouts" (fun r -> r.L.timeouts);
      drops;
      ll "marked" 3 (fun r -> r.L.marked_fraction);
    ]
  in
  gateless "robustness"
    "Robustness: fault injection (loss, flaps, ECN degradation)"
    ~params:
      [ ("scenario", Json.String "faulted dumbbell, N=40 unless swept") ]
    ~validity:[ finite metrics ]
    (longlived_windows (fun ~warmup ~measure ->
         Registry.robust_loss_specs ~warmup ~measure ()
         @ Registry.robust_flap_specs ()
         @ Registry.robust_suppress_specs ~warmup ~measure ()))
    metrics

let all =
  [
    fig1;
    sweep;
    fig14;
    fig15;
    ablation_thresholds;
    ablation_g;
    ablation_policies;
    ablation_testbed_labels;
    fluid;
    spectrum;
    d2tcp;
    sack;
    queue_buildup;
    convergence;
    robustness;
    oscillation;
    buffer;
    fattree;
  ]

(* --- the evaluator --- *)

let rel_string = function Lt -> "<" | Le -> "<="

let verdict_to_string v =
  let status =
    match v.status with
    | Holds -> "holds"
    | Fails -> "fails"
    | Invalid -> "invalid"
  in
  Printf.sprintf "%s %s: %s (%s)" v.claim v.point status v.detail

let invalid (o : Runner.outcome) t =
  let reason =
    match o.result with
    | Outcome.Failed { error; _ } -> Some error
    | Outcome.Done _ -> List.find_map (fun rule -> rule o) t.validity
  in
  Option.map (fun r -> o.spec.Spec.name ^ ": " ^ r) reason

let compare_at t point runs (g : gate) =
  let verdict status detail = { claim = t.name; point; status; detail } in
  let value proto =
    let key = key g.metric.key proto point in
    match
      List.find_map
        (fun r ->
          if String.equal r.protocol proto then assoc g.metric.key r.values
          else None)
        runs
    with
    | None -> Error (key ^ " missing")
    | Some v when Float.is_nan v -> Error (key ^ " is NaN")
    | Some v -> Ok v
  in
  match (value g.dt, value g.dctcp) with
  | Error reason, _ | _, Error reason -> verdict Invalid reason
  | Ok d, Ok c ->
      let holds = match g.rel with Lt -> d < c | Le -> d <= c in
      verdict
        (if holds then Holds else Fails)
        (Printf.sprintf "%s: %s %.*f %s%s %s %.*f" g.metric.key g.dt
           g.metric.digits d
           (if holds then "" else "not ")
           (rel_string g.rel) g.dctcp g.metric.digits c)

(* A point with an invalid run reads [Invalid]; otherwise a gated claim
   compares it and a gate-less one has nothing to say. *)
let judge_point t point runs =
  match List.find_map (fun r -> invalid r.outcome t) runs with
  | Some reason ->
      Some
        { claim = t.name; point = shown point; status = Invalid; detail = reason }
  | None -> Option.map (compare_at t (shown point) runs) t.gate

let judge_runs t runs =
  match distinct (List.map (fun r -> r.point) runs) with
  | [] ->
      [ { claim = t.name; point = "-"; status = Invalid; detail = "no runs" } ]
  | points ->
      List.filter_map
        (fun point ->
          judge_point t point
            (List.filter (fun r -> String.equal r.point point) runs))
        points

let labelled t outcomes =
  List.map
    (fun (o : Runner.outcome) ->
      let protocol, point = label o.spec in
      let values =
        List.filter_map
          (fun m -> Option.map (fun v -> (m.key, v)) (m.read o))
          t.metrics
      in
      { protocol; point; outcome = o; values })
    outcomes

let judge t outcomes = judge_runs t (labelled t (Array.to_list outcomes))

let table t runs =
  let title =
    match t.gate with
    | Some g ->
        Printf.sprintf "%s: %s of %s %s %s at every point" t.name g.metric.key
          g.dt (rel_string g.rel) g.dctcp
    | None -> t.name
  in
  let table =
    Stats.Table.create ~title
      ~columns:
        (Stats.Table.column ~align:Stats.Table.Left "protocol"
        :: Stats.Table.column ~align:Stats.Table.Left "point"
        :: List.map (fun m -> Stats.Table.column m.key) t.metrics)
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        (r.protocol :: shown r.point
        :: List.map
             (fun m ->
               match assoc m.key r.values with
               | Some v -> Stats.Table.fmt_f m.digits v
               | None -> "-")
             t.metrics))
    runs;
  table

let report_of t ~quick ~specs ~wall_s outcomes =
  (* Rows follow the declaration's spec order, whatever order the
     outcomes arrive in. *)
  let order = List.mapi (fun i (s : Spec.t) -> (s.name, i)) specs in
  let rank (o : Runner.outcome) =
    Option.value (assoc o.spec.Spec.name order) ~default:max_int
  in
  let runs =
    labelled t
      (List.stable_sort
         (fun a b -> Int.compare (rank a) (rank b))
         (Array.to_list outcomes))
  in
  let metrics =
    List.concat_map
      (fun r ->
        List.map (fun (m, v) -> (key m r.protocol r.point, v)) r.values)
      runs
  in
  let protocols = distinct (List.map (fun r -> r.protocol) runs) in
  let manifest =
    Obs.Manifest.make ~name:("bench." ^ t.name)
      ~seed:(match specs with s :: _ -> Spec.seed s | [] -> 0L)
      ~params:
        ((("quick", Json.Bool quick) :: t.params)
        @ [
            ( "protocols",
              Json.List (List.map (fun p -> Json.String p) protocols) );
          ])
      ~wall_clock_s:wall_s
      ~events:
        (List.fold_left
           (fun n r -> n + r.outcome.manifest.Obs.Manifest.events)
           0 runs)
      ~metrics ()
  in
  {
    declared = t;
    runs;
    table = table t runs;
    verdicts = judge_runs t runs;
    manifest;
  }

let report t ~quick outcomes =
  report_of t ~quick ~specs:(t.specs ~quick) ~wall_s:0. outcomes

let evaluate ?jobs ~quick t =
  let specs = t.specs ~quick in
  let outcomes, wall_s =
    Obs.Profile.time (fun () -> Runner.run ?jobs ~analyze:t.analyze specs)
  in
  report_of t ~quick ~specs ~wall_s outcomes

let find (r : report) ~protocol ~point =
  List.find_opt
    (fun run ->
      String.equal run.protocol protocol && String.equal run.point point)
    r.runs

let value (r : report) key ~protocol ~point =
  if not (List.exists (fun m -> String.equal m.key key) r.declared.metrics)
  then
    invalid_arg
      ("Exp.Claim.value: " ^ r.declared.name ^ " has no metric " ^ key);
  Option.bind (find r ~protocol ~point) (fun run -> assoc key run.values)
