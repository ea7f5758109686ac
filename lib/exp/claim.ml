module Json = Obs.Json
module Time = Engine.Time
module D = Workloads.Dumbbell
module F = Workloads.Fanin

type rel = Lt | Le

type metric = {
  key : string;
  digits : int;
  read : Runner.outcome -> float option;
}

type gate = { metric : metric; rel : rel; dt : string; dctcp : string }

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

type t = {
  name : string;
  title : string;
  params : (string * Json.t) list;
  specs : unit -> Spec.t list;
  metrics : metric list;
  gate : gate option;
  validity : (Runner.outcome -> string option) list;
  analyze : bool;
  serial : bool;
  epilogue : report -> string;
}

and report = {
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

let half span = Time.span_of_int_ns (Time.span_to_int_ns span / 2)

(* Flaps and rate changes happen at absolute times, which a halved run
   could end before. *)
let timed_faults (s : Spec.t) =
  match s.faults with
  | Some p -> p.Fault.Plan.flaps <> [] || p.Fault.Plan.rate_changes <> []
  | None -> false

let quick (s : Spec.t) =
  let schedule = function
    | D.Longlived _ as l when timed_faults s -> l
    | D.Longlived l ->
        D.Longlived
          { l with D.warmup = half l.D.warmup; measure = half l.D.measure }
    | D.Dynamic d -> D.Dynamic { d with D.duration = half d.D.duration }
    | D.Convergence c ->
        D.Convergence
          {
            c with
            D.join_interval = half c.D.join_interval;
            hold = half c.D.hold;
          }
  in
  let workload =
    match s.workload with
    | Spec.Dumbbell c ->
        Spec.Dumbbell { c with D.schedule = schedule c.D.schedule }
    | Spec.Fanin c ->
        Spec.Fanin { c with F.repeats = Int.max 1 (c.F.repeats / 2) }
    | Spec.Fattree c ->
        Spec.Fattree
          { c with Workloads.Fattree.time_cap = Time.span_of_sec 1. }
  in
  { s with workload }

let at_scale ~quick:q specs = if q then List.map quick specs else specs

(* A registry family's full-scale specs. *)
let family name () =
  match Registry.find name with
  | Some e -> e.Registry.specs ()
  | None -> invalid_arg ("Exp.Claim: no registry family " ^ name)

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
  match payload o with
  | Some (Outcome.Dumbbell (D.Queue r)) -> Some (f r)
  | _ -> None

let fabric f o =
  match payload o with Some (Outcome.Fattree r) -> Some (f r) | _ -> None

let ll key digits f = metric key digits (longlived f)
let count key f = ll key 0 (fun r -> float_of_int (f r))
let mean_queue = ll "mean_queue" 1 (fun r -> r.D.mean_queue_pkts)
let std_queue digits = ll "std_queue" digits (fun r -> r.D.std_queue_pkts)
let max_queue = ll "max_queue" 0 (fun r -> r.D.max_queue_pkts)
let alpha = ll "alpha" 3 (fun r -> r.D.mean_alpha)
let util = ll "util" 3 (fun r -> r.D.utilization)
let drops = count "drops" (fun r -> r.D.drops)
let timeouts = count "timeouts" (fun r -> r.D.timeouts)

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

(* An optional value as a table shows it: "-" when absent. *)
let cell digits = function
  | Some v -> Stats.Table.fmt_f digits v
  | None -> "-"

let key metric proto point =
  String.concat "."
    (metric :: proto :: (if String.equal point "" then [] else [ point ]))

let distinct xs =
  List.fold_left
    (fun acc x -> if List.exists (String.equal x) acc then acc else x :: acc)
    [] xs
  |> List.rev

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

(* --- the gated claims --- *)

let analysed key digits path = metric key digits (analysis path)
let occ_std = analysed "occ_std_pkts" 1 [ "occupancy"; "std_pkts" ]
let cycles = metric "cycles" 0 (cycle "count")
let amp_mean = metric "amp_mean_pkts" 1 (cycle "amp_mean_pkts")
let ints xs = Json.List (List.map (fun x -> Json.Int x) xs)
let no_epilogue (_ : report) = ""

(* The paper's headline: the hysteresis band keeps DT-DCTCP's peak-trough
   amplitude strictly below DCTCP's at every N. *)
let oscillation =
  {
    name = "oscillation";
    title = "Oscillation: streaming-analyzer N-sweep (DCTCP vs DT-DCTCP)";
    params = [ ("flow_counts", ints Registry.oscillation_ns) ];
    specs = family "oscillation";
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
    serial = false;
    epilogue = no_epilogue;
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
      (fun () ->
        List.filter
          (fun (s : Spec.t) ->
            match s.buffer with
            | Net.Buffer_mgr.Dynamic_threshold d -> Float.equal d.alpha alpha
            | Net.Buffer_mgr.Static -> false)
          (family "fig_buffer" ()));
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
    serial = false;
    epilogue = no_epilogue;
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
   slowdown at or below DCTCP's at k = 4 and 8. *)
let fattree =
  let count key f = metric key 0 (fabric (fun r -> float_of_int (f r))) in
  {
    name = "fattree";
    title = "Fat-tree fabric: FCT slowdown over ECMP";
    params = [ ("ks", ints Registry.fattree_ks) ];
    specs = family "fig_fattree";
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
    serial = false;
    epilogue = no_epilogue;
  }

(* --- the paper's figures, its ablations and the extension studies ---

   Gate-less claims: each tabulates and records one row per run and
   gates nothing. What is not a per-run value (a normalization, a ratio
   between protocols, an onset, a plot) its epilogue derives from the
   report by label; a fixed [note] follows it. *)

let gateless ?(params = []) ?(validity = []) ?(epilogue = no_epilogue) ?note
    name title specs metrics =
  {
    name;
    title;
    params;
    specs;
    metrics;
    gate = None;
    validity;
    analyze = false;
    serial = false;
    epilogue =
      (match note with
      | None -> epilogue
      | Some text -> fun r -> epilogue r ^ "\n" ^ text);
  }

let queue_stats = [ mean_queue; std_queue 2; alpha; util ]

(* The bottleneck occupancy series in packets, when the run sampled it. *)
let series o =
  match longlived (fun r -> r.D.queue_series) o with
  | Some (Some s) -> Some (Array.map snd s)
  | _ -> None

let peak_to_peak =
  metric "peak_to_peak" 0 (fun o ->
      Option.map
        (fun s ->
          Array.fold_left Float.max neg_infinity s
          -. Array.fold_left Float.min infinity s)
        (series o))

(* A 4 ms excerpt of each run's queue, so individual oscillation periods
   resolve. *)
let excerpts r =
  String.concat ""
    (List.filter_map
       (fun run ->
         Option.map
           (fun series ->
             let name = run.outcome.Runner.spec.Spec.name in
             let n = Array.length series in
             let excerpt = Array.sub series (n / 2) (Int.min 200 (n / 2)) in
             Printf.sprintf "\n%s (4 ms excerpt, queue in packets):\n%s" name
               (Stats.Ascii_plot.render ~height:10
                  ~series:[ (name, excerpt) ]
                  ()))
           (series run.outcome))
       r.runs)

let fig1 =
  gateless "fig1"
    "Figure 1: queue at the switch, DCTCP vs DT-DCTCP, N=10 and N=100"
    ~epilogue:excerpts
    ~note:
      "Paper's claim: DCTCP's swing at N=100 is ~3-4x its N=10 swing, and\n\
       DT-DCTCP swings less at equal N. Compare the std_queue and \
       peak_to_peak columns.\n"
    (family "fig_queue")
    [ mean_queue; std_queue 2; max_queue; peak_to_peak; util ]

(* Figures 10, 12 and 11 compare the protocols point by point over the
   flow count: the mean queue normalized to each protocol's N=10
   baseline, the queue deviation of DT-DCTCP over DCTCP's, and the gap
   between their mean alphas. *)
let against_dctcp r =
  let ns = Registry.sweep_ns in
  let v key protocol n =
    value r key ~protocol ~point:(Printf.sprintf "n%d" n)
  in
  let both f a b =
    match (a, b) with Some a, Some b -> Some (f a b) | _ -> None
  in
  let normalized protocol n =
    both ( /. ) (v "mean_queue" protocol n) (v "mean_queue" protocol 10)
  in
  let t =
    Stats.Table.create ~title:"Figures 10-12: DT-DCTCP against DCTCP, by N"
      ~columns:
        [
          Stats.Table.column "N";
          Stats.Table.column "DCTCP mean (xN=10)";
          Stats.Table.column "DT mean (xN=10)";
          Stats.Table.column "std DT/DCTCP";
          Stats.Table.column "alpha DCTCP - DT";
        ]
  in
  List.iter
    (fun n ->
      Stats.Table.add_row t
        [
          string_of_int n;
          cell 2 (normalized "dctcp" n);
          cell 2 (normalized "dt-dctcp" n);
          cell 2
            (both ( /. ) (v "std_queue" "dt-dctcp" n) (v "std_queue" "dctcp" n));
          cell 3 (both ( -. ) (v "alpha" "dctcp" n) (v "alpha" "dt-dctcp" n));
        ])
    ns;
  let plot title f =
    let points protocol = Array.of_list (List.filter_map (f protocol) ns) in
    Printf.sprintf "\n%s:\n%s" title
      (Stats.Ascii_plot.render ~height:12
         ~series:[ ("DCTCP", points "dctcp"); ("DT-DCTCP", points "dt-dctcp") ]
         ())
  in
  String.concat ""
    [
      "\n";
      Stats.Table.to_string t;
      plot "normalized mean queue vs N (both series)" normalized;
      "Paper (Fig. 10): DCTCP strays from ~N=35 (up to 1.8x baseline, local \
       max near N=60);\n\
       DT-DCTCP stays near 1.0x until ~N=70.\n";
      plot "queue stddev vs N" (v "std_queue");
      "Paper (Fig. 11): both grow with N; DT-DCTCP below DCTCP at every N.\n\
       Paper (Fig. 12): both alphas grow with N; DT-DCTCP's stays below \
       DCTCP's (by ~0.1)\n\
       while throughput stays at line rate.\n";
    ]

let sweep =
  gateless "sweep"
    "Figures 10-12: dumbbell sweep N=10..100 (10 Gbps, RTT 100us, g=1/16)"
    ~params:[ ("flow_counts", ints Registry.sweep_ns) ]
    ~epilogue:against_dctcp
    (family "fig_sweep")
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

(* The Incast collapse onset of each protocol, read off its goodput by
   label. *)
let collapse_onset r =
  let ns = Registry.incast_flow_counts in
  let last = List.fold_left (fun _ n -> n) 0 ns in
  let onset protocol =
    let collapsed n =
      match
        value r "goodput_mbps" ~protocol ~point:(Printf.sprintf "n%d" n)
      with
      | Some g -> g < 500.
      | None -> false
    in
    Printf.sprintf "  %-14s %s\n" protocol
      (match List.find_opt collapsed ns with
      | Some n -> string_of_int n
      | None -> Printf.sprintf "none up to %d" last)
  in
  "\ncollapse onset (first n with goodput < 500 Mbps):\n"
  ^ String.concat ""
      (List.map onset (distinct (List.map (fun run -> run.protocol) r.runs)))

let fig14 =
  gateless "fig14"
    "Figure 14: Incast, 64KB per worker, 1 Gbps star, 128KB buffer"
    ~params:[ ("flow_counts", ints Registry.incast_flow_counts) ]
    ~epilogue:collapse_onset
    ~note:
      "Paper: DCTCP collapses at 32 synchronized flows, DT-DCTCP holds until\n\
       37 — a ~5-flow postponement. The reproduction shows the same ordering\n\
       and a similar gap (absolute onsets shift with min-RTO and jitter).\n"
    (family "fig_incast")
    [ goodput_mbps; timeouts_per_run; queries ]

let fig15 =
  gateless "fig15" "Figure 15: completion time of 1MB scattered over n workers"
    ~params:[ ("flow_counts", ints Registry.incast_flow_counts) ]
    ~note:
      "Paper: floor ~10 ms (1MB at 1 Gbps); a ~20x jump once Incast begins.\n\
       DCTCP's completion oscillates from 34 flows and jumps at 40; DT-DCTCP\n\
       climbs smoothly and jumps later (42). Look for the later, cleaner\n\
       transition in the dt-28-34 rows.\n"
    (family "fig_completion")
    [
      metric "completion_ms" 2
        (completion (fun r -> r.F.mean_completion_s *. 1e3));
      metric "max_ms" 2 (completion (fun r -> r.F.max_completion_s *. 1e3));
      queries;
    ]

let ablation_thresholds =
  gateless "ablation_thresholds"
    "Ablation A: DT-DCTCP threshold placement at N=60 (K=40 equivalent)"
    ~note:
      "Points name (K1, K2) in packets.\n\
       Wider splits start marking earlier (lower mean queue) and stop\n\
       earlier on descents; too wide a split costs utilization headroom.\n"
    (family "ablation_thresholds")
    queue_stats

let ablation_g =
  gateless "ablation_g" "Ablation B: EWMA gain g at N=60"
    ~note:
      "The paper fixes g=1/16; the DT advantage in stddev persists across\n\
       gains (slower gains smooth alpha but react later).\n"
    (family "ablation_g")
    [ mean_queue; std_queue 2 ]

let ablation_policies =
  gateless "ablation_policies"
    "Ablation C: marking-policy family at N=60 (same sender where applicable)"
    ~note:
      "The paper's background claim: plain ECN (on/off halving) wastes the\n\
       queue headroom and Reno fills the buffer; DCTCP holds the queue near K\n\
       and DT-DCTCP holds it with less variance.\n"
    (family "ablation_policies")
    [ mean_queue; std_queue 2; util; drops ]

let ablation_testbed_labels =
  gateless "ablation_testbed_labels"
    "Ablation E: the two readings of the testbed's (K1=34KB, K2=28KB)"
    ~note:
      "Read literally (thermostat: start 34KB, stop 28KB) the DT thresholds\n\
       collapse no later than DCTCP; read as (start=lower, stop=higher) they\n\
       postpone the collapse as the paper's Figure 14 reports — the basis for\n\
       the label-swap conclusion in DESIGN.md.\n"
    (family "ablation_testbed_labels")
    [ goodput_mbps ]

(* A long-lived run's model inputs: the flow count, the bottleneck in
   packets/s, the base RTT in seconds, and the protocol's gain and
   marking in packets ([None] for a protocol without a fixed band). *)
let model_inputs (o : Runner.outcome) =
  match o.spec.Spec.workload with
  | Spec.Dumbbell ({ D.schedule = D.Longlived l; _ } as c) ->
      let pkts b = float_of_int b /. float_of_int c.D.segment_bytes in
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
          ( l.D.n_flows,
            c.D.bottleneck_rate_bps /. (8. *. float_of_int c.D.segment_bytes),
            Time.span_to_sec c.D.rtt,
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
    ~note:
      "The deterministic fluid model sits near the thresholds by\n\
       construction; the packet simulator adds ACK-clocking burstiness and\n\
       window quantization, which lift the mean at large N (the oscillation\n\
       the paper studies).\n"
    (fun () ->
      List.filter
        (fun (s : Spec.t) ->
          match s.workload with
          | Spec.Dumbbell { D.schedule = D.Longlived l; _ } ->
              List.mem l.D.n_flows [ 10; 30; 60; 100 ]
          | _ -> false)
        (family "fig_sweep" ()))
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
      | ( Some samples,
          Spec.Dumbbell
            { D.schedule = D.Longlived { D.trace_sampling = Some period; _ }; _ }
        ) ->
          Option.map
            (fun p -> p.Stats.Spectrum.frequency_hz)
            (Stats.Spectrum.dominant_frequency ~samples
               ~sample_rate_hz:(1. /. Time.span_to_sec period))
      | _ -> None)

let spectrum =
  gateless "spectrum"
    "Spectral validation: simulated oscillation frequency vs DF prediction \
     (R0 = 1 ms)"
    ~note:
      "A '-' under df_freq_hz: the describing function predicts a stable\n\
       equilibrium there (no limit cycle); under sim_freq_hz: no dominant\n\
       peak in the sampled queue.\n\n\
       The DF predicts the first harmonic of the limit cycle in the smooth\n\
       fluid abstraction; the packet system adds window quantization and\n\
       ACK-clocking, which shorten the cycle. Frequencies agree within a\n\
       factor of two and the predicted ordering (DT-DCTCP oscillates faster\n\
       and with less queue deviation than DCTCP) holds in the packet system.\n"
    (family "spectrum")
    [ df_freq_hz; sim_freq_hz; mean_queue; std_queue 1 ]

let d2tcp =
  gateless "d2tcp" "Extension: D2TCP (deadline-aware backoff) vs DCTCP"
    ~note:
      "300 KB flows, deadlines uniform 2-6 ms, 10 Gbps star.\n\
       D2TCP's imminence-gated backoff (p = alpha^d) trades bandwidth toward\n\
       near-deadline flows; the gain concentrates in the mid fan-in range\n\
       where windows are still several segments (at high fan-in every window\n\
       is pinned at ~1 segment and no backoff policy can shift bandwidth).\n\
       This implementation omits the original's hardware pacing.\n"
    (family "d2tcp")
    [
      metric "met_fraction" 3 (deadlines (fun r -> r.F.met_fraction));
      metric "p99_ms" 2 (deadlines (fun r -> r.F.p99_completion_s *. 1e3));
    ]

let sack =
  gateless "sack" "Extension: SACK vs go-back-N recovery in the Incast regime"
    ~note:
      "A negative result worth keeping: the go-back-n and sack rows are\n\
       identical. Incast losses here are whole-window tail losses on 1-2\n\
       segment windows, so the three duplicate ACKs fast retransmit waits for\n\
       never arrive, fast retransmit (where SACK acts) never engages, and\n\
       every recovery is a min-RTO wait. SACK's benefit shows on partial\n\
       window losses instead (see the lossy-transfer tests: ~5x less resend\n\
       overhead than go-back-N).\n"
    (family "sack")
    [ goodput_mbps; timeouts_per_run ]

let dynamic key digits f =
  metric key digits (fun o ->
      match payload o with
      | Some (Outcome.Dumbbell (D.Fct r)) -> Some (f r)
      | _ -> None)

let queue_buildup =
  let us key f = dynamic key 0 (fun r -> f r *. 1e6) in
  gateless "queue_buildup"
    "Extension: queue buildup under mixed traffic (DCTCP paper sec. 3.3)"
    ~note:
      "2 background long flows + Poisson 21 KB short flows (5k/s), 10 Gbps.\n\
       Reno's standing queue inflates every short flow's completion by the\n\
       queueing delay (~6x at the median here); the DCTCP family keeps the\n\
       queue at the marking threshold so short flows cut through, and\n\
       DT-DCTCP's lower queue floor shaves latency further - the paper's\n\
       motivation for low, stable queues in one table.\n"
    (family "queue_buildup")
    [
      us "fct_p50_us" (fun r -> r.D.fct_p50_s);
      us "fct_p99_us" (fun r -> r.D.fct_p99_s);
      us "fct_max_us" (fun r -> r.D.fct_max_s);
      dynamic "bg_gbps" 2 (fun r -> r.D.background_throughput_bps /. 1e9);
      dynamic "mean_queue" 1 (fun r -> r.D.mean_queue_pkts);
      dynamic "std_queue" 1 (fun r -> r.D.std_queue_pkts);
    ]

(* Each run's per-flow share over time, and each flow's convergence
   time. *)
let share_plots r =
  String.concat ""
    (List.filter_map
       (fun run ->
         match payload run.outcome with
         | Some (Outcome.Dumbbell (D.Shares c)) ->
             let series =
               List.init (Array.length c.D.convergence_times_s) (fun i ->
                   ( Printf.sprintf "flow %d" i,
                     Array.map (fun w -> w.(i) /. 1e6) c.D.shares ))
             in
             let ms t =
               if Float.is_nan t then "-" else Printf.sprintf "%.0f" (t *. 1e3)
             in
             Some
               (Printf.sprintf
                  "\n%s: per-flow share over time (Mbps)\n%s  convergence \
                   times (ms): %s\n"
                  run.outcome.Runner.spec.Spec.name
                  (Stats.Ascii_plot.render ~height:11 ~series ())
                  (String.concat ", "
                     (Array.to_list (Array.map ms c.D.convergence_times_s))))
         | _ -> None)
       r.runs)

let convergence =
  let steady key f =
    metric key 3 (fun o ->
        match payload o with
        | Some (Outcome.Dumbbell (D.Shares r)) -> Some (f r)
        | _ -> None)
  in
  gateless "convergence"
    "Extension: convergence under flow churn (DCTCP paper's convergence test)"
    ~epilogue:share_plots
    ~note:
      "Flows join every 400 ms then leave in join order; both protocols\n\
       converge each newcomer to its fair share within tens of ms (tens to\n\
       hundreds of RTTs) and keep near-1 Jain fairness while all five are\n\
       active.\n"
    (family "convergence")
    [
      steady "jain" (fun r -> r.D.jain_steady);
      steady "util" (fun r -> r.D.utilization_steady);
    ]

let finite metrics o =
  List.find_map
    (fun m ->
      match m.read o with
      | Some v when not (Float.is_finite v) ->
          Some (Printf.sprintf "%s %g is not finite" m.key v)
      | _ -> None)
    metrics

(* The queue through the bottleneck flap, both protocols on one plot. *)
let flap_plot r =
  let flap protocol =
    Option.bind (find r ~protocol ~point:"flap") (fun run -> series run.outcome)
  in
  match (flap "dctcp", flap "dt-dctcp") with
  | Some dc, Some dt ->
      Printf.sprintf
        "\nqueue occupancy through the flap (down 150ms, up 170ms):\n%s"
        (Stats.Ascii_plot.render ~height:12
           ~series:[ ("DCTCP", dc); ("DT-DCTCP", dt) ]
           ())
  | _ -> ""

(* The paper's claims are all made on a clean fabric; this one stresses
   them with random loss, a bottleneck flap, a half-rate brownout and a
   switch that drops half its ECN marks, against the fault-free operating
   points. Every fault realization is seeded, so the table is bit-stable
   across runs and -j levels. *)
let robustness =
  let metrics =
    [
      mean_queue;
      std_queue 1;
      max_queue;
      util;
      timeouts;
      drops;
      ll "marked" 3 (fun r -> r.D.marked_fraction);
    ]
  in
  gateless "robustness"
    "Robustness: fault injection (loss, flaps, ECN degradation)"
    ~params:
      [ ("scenario", Json.String "faulted dumbbell, N=40 unless swept") ]
    ~validity:[ finite metrics ] ~epilogue:flap_plot
    ~note:
      "Expectation (loss, points p*): both transports degrade gracefully to\n\
       ~1% loss; DT-DCTCP keeps the lower queue stddev at every loss rate.\n\
       Expectation (flap: 20 ms down; brownout: 50 ms at half rate): the\n\
       queue drains during the outage, spikes on recovery, and re-converges;\n\
       DT-DCTCP's post-fault oscillation stays the narrower one.\n\
       Expectation (points n*, 50% of ECN marks dropped): queues sit higher\n\
       than the fault-free sweep at every N (half the congestion signal is\n\
       gone) but both transports remain drop-free longer than plain ECN\n\
       would suggest; DT-DCTCP's double threshold still damps swings.\n"
    (fun () ->
      List.concat_map
        (fun name -> family name ())
        [ "robust_loss"; "robust_flap"; "robust_suppress" ])
    metrics

(* The events/s baseline behind BENCH_perf.json: the paper's DT-DCTCP
   point at N = 4, 32, 128 and 512 long-lived flows. Serial, because runs
   sharing the host's cores would lower each other's events/s. Per-stage
   ns/op rows live in perfbench/; the per-event-class breakdown of a point
   is `dtsim sweep --name perf_dumbbell/dt-dctcp/n=32 --profile-out FILE`. *)
let perf =
  let counted key f =
    metric key 0 (fun o -> Option.map (fun _ -> f o.Runner.manifest) (payload o))
  in
  {
    (gateless "perf" "Performance: events/s (DT-DCTCP dumbbell)"
       ~params:
         [
           ("scenario", Json.String "perf_dumbbell");
           ("flow_counts", ints Registry.perf_dumbbell_ns);
         ]
       (family "perf_dumbbell")
       [
         counted "events" (fun m -> float_of_int m.Obs.Manifest.events);
         counted "events_per_s" (fun m -> m.Obs.Manifest.events_per_s);
         timeouts;
         util;
       ])
    with
    serial = true;
  }

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
    perf;
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
        :: List.map (fun m -> cell m.digits (assoc m.key r.values)) t.metrics))
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
  report_of t ~quick ~specs:(at_scale ~quick (t.specs ())) ~wall_s:0. outcomes

let evaluate ?jobs ~quick t =
  let jobs = if t.serial then Some 1 else jobs in
  let specs = at_scale ~quick (t.specs ()) in
  let outcomes, wall_s =
    Obs.Profile.time (fun () -> Runner.run ?jobs ~analyze:t.analyze specs)
  in
  report_of t ~quick ~specs ~wall_s outcomes
