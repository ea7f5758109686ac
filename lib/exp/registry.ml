module Time = Engine.Time
module L = Workloads.Longlived
module F = Workloads.Fanin
module Dy = Workloads.Dynamic
module Cv = Workloads.Convergence
module Ft = Workloads.Fattree

let incast = F.default_config F.Incast
let completion = F.default_config F.Completion

(* --- the paper's protocol operating points --- *)

let g = 1. /. 16.
let sim_dctcp = Spec.Dctcp { g; k_bytes = 40 * 1500 }
let sim_dt = Spec.Dt_dctcp { g; k1_bytes = 30 * 1500; k2_bytes = 50 * 1500 }
let sim_ecn_reno = Spec.Ecn_reno { k_bytes = 40 * 1500 }
let sim_reno = Spec.Reno

(* Testbed sections (Section VI-B): K = 32 KB at 1 Gbps, and the
   (start, stop) splits (28, 34), (30, 34) and the literal "thermostat"
   reading (34, 28) KB of ablation E. *)
let testbed_dctcp = Spec.Dctcp { g; k_bytes = 32 * 1024 }

let testbed_dt_a =
  Spec.Dt_dctcp { g; k1_bytes = 28 * 1024; k2_bytes = 34 * 1024 }

let testbed_dt_b =
  Spec.Dt_dctcp { g; k1_bytes = 30 * 1024; k2_bytes = 34 * 1024 }

let testbed_dt_swapped =
  Spec.Dt_dctcp { g; k1_bytes = 34 * 1024; k2_bytes = 28 * 1024 }

(* --- parameterized spec builders ---

   Each figure/section is a function of the knobs the bench harness
   scales in --quick mode; the registry entries below apply the paper's
   full-scale defaults. Spec names encode the point within the sweep
   ("fig_sweep/n=40/dt-dctcp"), so per-run manifests are self-describing. *)

let longlived_config ?(warmup = Time.span_of_ms 100.)
    ?(measure = Time.span_of_ms 200.) ?trace_sampling ~n () =
  { L.default_config with L.n_flows = n; warmup; measure; trace_sampling }

let named base proto suffix =
  Printf.sprintf "%s/%s%s" base (Spec.protocol_name proto) suffix

(* The one spec constructor: a Static bottleneck buffer and no fault plan
   unless the family says otherwise. *)
let spec ?faults ?(buffer = Net.Buffer_mgr.Static) name protocol workload =
  { Spec.name; protocol; workload; faults; buffer }

let fig_queue_specs ?warmup ?measure () =
  List.concat_map
    (fun n ->
      let config =
        longlived_config ?warmup ?measure
          ~trace_sampling:(Time.span_of_us 20.) ~n ()
      in
      List.map
        (fun proto ->
          spec
            (named "fig_queue" proto (Printf.sprintf "/n=%d" n))
            proto (Spec.Longlived config))
        [ sim_dctcp; sim_dt ])
    [ 10; 100 ]

let sweep_ns = List.init 19 (fun i -> 10 + (5 * i))

let fig_sweep_specs ?(ns = sweep_ns) ?warmup ?measure () =
  List.concat_map
    (fun n ->
      let config = longlived_config ?warmup ?measure ~n () in
      List.map
        (fun proto ->
          spec
            (named "fig_sweep" proto (Printf.sprintf "/n=%d" n))
            proto (Spec.Longlived config))
        [ sim_dctcp; sim_dt ])
    ns

(* The oscillation N-sweep behind the headline claim: the simulation
   operating points under seed 42, slugged "dctcp" and "dt". *)
let oscillation_ns = [ 10; 30; 60 ]

let oscillation_specs ?warmup ?measure () =
  List.concat_map
    (fun n ->
      let config =
        { (longlived_config ?warmup ?measure ~n ()) with L.seed = 42L }
      in
      List.map
        (fun (slug, proto) ->
          spec
            (Printf.sprintf "oscillation/%s/n=%d" slug n)
            proto (Spec.Longlived config))
        [ ("dctcp", sim_dctcp); ("dt", sim_dt) ])
    oscillation_ns

let incast_flow_counts =
  [ 4; 8; 12; 16; 20; 24; 28; 30; 32; 34; 36; 38; 40; 42; 44; 48 ]

(* The two DT readings share the "dt-dctcp" kind tag, so testbed sweeps
   name their points by threshold slug instead of [named]. *)
let testbed_protocols =
  [
    ("dctcp-32KB", testbed_dctcp);
    ("dt-28-34", testbed_dt_a);
    ("dt-30-34", testbed_dt_b);
  ]

let fig_incast_specs ?(repeats = 20) () =
  List.concat_map
    (fun n ->
      List.map
        (fun (slug, proto) ->
          spec
            (Printf.sprintf "fig_incast/%s/n=%d" slug n)
            proto
            (Spec.Fanin { incast with F.n_flows = n; repeats }))
        testbed_protocols)
    incast_flow_counts

let fig_completion_specs ?(repeats = 20) () =
  List.concat_map
    (fun n ->
      List.map
        (fun (slug, proto) ->
          spec
            (Printf.sprintf "fig_completion/%s/n=%d" slug n)
            proto
            (Spec.Fanin { completion with F.n_flows = n; repeats }))
        testbed_protocols)
    incast_flow_counts

let threshold_splits = [ (35, 45); (30, 50); (25, 55); (20, 60); (38, 42) ]

let threshold_ablation_specs ?warmup ?measure () =
  let workload =
    Spec.Longlived (longlived_config ?warmup ?measure ~n:60 ())
  in
  spec (named "ablation_thresholds" sim_dctcp "") sim_dctcp workload
  :: List.map
       (fun (k1, k2) ->
         spec
           (Printf.sprintf "ablation_thresholds/dt-dctcp/k1=%d,k2=%d" k1 k2)
           (Spec.Dt_dctcp { g; k1_bytes = k1 * 1500; k2_bytes = k2 * 1500 })
           workload)
       threshold_splits

let gains = [ ("1_4", 0.25); ("1_16", 1. /. 16.); ("1_64", 1. /. 64.) ]

let g_ablation_specs ?warmup ?measure () =
  let config = longlived_config ?warmup ?measure ~n:60 () in
  List.concat_map
    (fun (label, g) ->
      List.map
        (fun proto ->
          spec
            (named "ablation_g" proto ("/g=" ^ label))
            proto (Spec.Longlived config))
        [
          Spec.Dctcp { g; k_bytes = 40 * 1500 };
          Spec.Dt_dctcp { g; k1_bytes = 30 * 1500; k2_bytes = 50 * 1500 };
        ])
    gains

let policy_ablation_specs ?warmup ?measure () =
  let config = longlived_config ?warmup ?measure ~n:60 () in
  List.map
    (fun proto ->
      spec (named "ablation_policies" proto "") proto (Spec.Longlived config))
    [ sim_dctcp; sim_dt; sim_ecn_reno; sim_reno ]

let testbed_label_specs ?(repeats = 10) () =
  List.concat_map
    (fun n ->
      List.map
        (fun (reading, proto) ->
          spec
            (Printf.sprintf "ablation_testbed_labels/%s/n=%d" reading n)
            proto
            (Spec.Fanin { incast with F.n_flows = n; repeats }))
        [
          ("dctcp-32KB", testbed_dctcp);
          ("start28-stop34", testbed_dt_a);
          ("thermostat34-28", testbed_dt_swapped);
        ])
    [ 28; 30; 32; 34; 36; 38; 40 ]

let d2tcp_config ~n ~repeats ~aware =
  {
    (F.default_config F.Deadline) with
    F.n_flows = n;
    repeats;
    rate_bps = 10e9;
    buffer_bytes = 512 * 1024;
    bytes = F.Per_flow (300 * 1024);
    min_rto = Time.span_of_ms 10.;
    deadline =
      Some
        { base = Time.span_of_ms 2.; spread = Time.span_of_ms 4.; aware };
  }

let d2tcp_specs ?(repeats = 10) () =
  List.concat_map
    (fun n ->
      List.map
        (fun (tag, aware) ->
          spec
            (Printf.sprintf "d2tcp/%s/n=%d" tag n)
            sim_dctcp
            (Spec.Fanin (d2tcp_config ~n ~repeats ~aware)))
        [ ("dctcp", false); ("d2tcp", true) ])
    [ 6; 8; 10; 12; 16; 20 ]

let sack_specs ?(repeats = 10) () =
  List.concat_map
    (fun n ->
      List.map
        (fun (tag, sack) ->
          spec
            (Printf.sprintf "sack/%s/n=%d" tag n)
            testbed_dctcp
            (Spec.Fanin { incast with F.n_flows = n; repeats; sack }))
        [ ("go-back-n", false); ("sack", true) ])
    [ 28; 32; 34; 36; 40; 44 ]

let queue_buildup_specs ?duration () =
  let config =
    match duration with
    | None -> Dy.default_config
    | Some duration -> { Dy.default_config with Dy.duration }
  in
  List.map
    (fun proto ->
      spec (named "queue_buildup" proto "") proto (Spec.Dynamic config))
    [ sim_dctcp; sim_dt; sim_ecn_reno; sim_reno ]

let convergence_specs ?(join_interval = Time.span_of_ms 400.)
    ?(hold = Time.span_of_ms 400.) () =
  let config = { Cv.default_config with Cv.join_interval; hold } in
  List.map
    (fun proto ->
      spec (named "convergence" proto "") proto (Spec.Convergence config))
    [ sim_dctcp; sim_dt ]

(* --- shared-buffer sizing study (extension) ---

   Sweep one shared switch memory from well under a bandwidth-delay
   product to deep buffering, governed by Dynamic Threshold at three
   alpha settings. The ECN protocols mark at fractions of the moving
   effective limit (the scaled policies), so the same protocol point is
   meaningful at every pool size; NewReno is the loss-based competitor
   that only notices the buffer when it overflows. *)

let bdp_bytes = 125_000
let buffer_pool_sizes = [ 10_000; 62_500; 125_000; 250_000; 1_000_000 ]

(* Dynamic-Threshold alphas; DCTCP marks at K = 0.25 x the effective
   limit, DT-DCTCP's band sits at (0.20, 0.30) x the limit. *)
let buffer_alphas = [ 0.5; 1.0; 2.0 ]
let scaled_dctcp = Spec.Dctcp_scaled { g; k_frac = 0.25 }
let scaled_dt = Spec.Dt_dctcp_scaled { g; k1_frac = 0.2; k2_frac = 0.3 }

let buffer_protocols =
  [
    ("dctcp", scaled_dctcp);
    ("dt-dctcp", scaled_dt);
    ("newreno", Spec.Newreno);
  ]

let fig_buffer_specs ?(alphas = buffer_alphas) ?warmup ?measure () =
  List.concat_map
    (fun pool_bytes ->
      List.concat_map
        (fun alpha ->
          (* [buffer_bytes] still sizes the non-pool queues and anchors
             the analyzer's notion of capacity; at the bottleneck switch
             the pool replaces it. *)
          let config =
            {
              (longlived_config ?warmup ?measure ~n:10 ()) with
              L.buffer_bytes = pool_bytes;
            }
          in
          List.map
            (fun (slug, proto) ->
              spec
                ~buffer:(Net.Buffer_mgr.Dynamic_threshold { pool_bytes; alpha })
                (Printf.sprintf "fig_buffer/%s/B=%d/a=%g" slug pool_bytes
                   alpha)
                proto (Spec.Longlived config))
            buffer_protocols)
        alphas)
    buffer_pool_sizes

(* --- fat-tree fabric study (extension) ---

   FCT slowdown on the k-ary fat tree: per-rack incast victims plus
   cross-pod long flows over ECMP multi-path routing. The protocol
   points are the testbed 1 Gbps operating points (every fabric link is
   1 Gbps), with loss-based NewReno as the non-ECN competitor. *)

let fattree_protocols =
  [
    ("dctcp", testbed_dctcp);
    ("dt-dctcp", testbed_dt_a);
    ("newreno", Spec.Newreno);
  ]

let fattree_ks = [ 4; 8 ]

(* Fan-in scales with the fabric: k/2 hosts share each rack uplink
   group, and 4k senders per victim keeps every edge switch busy
   without degenerating into pure timeout counting. Long flows number
   2k so each pod sources a couple on average. At k=8 this is
   32 racks x 32 + 16 = 1040 flows over 128 hosts. *)
let fattree_config ?incast_bytes ?long_bytes ?time_cap ~k () =
  let d = Ft.default_config in
  {
    d with
    Ft.k;
    incast_fanin = 4 * k;
    long_flows = 2 * k;
    incast_bytes = Option.value incast_bytes ~default:d.Ft.incast_bytes;
    long_bytes = Option.value long_bytes ~default:d.Ft.long_bytes;
    time_cap = Option.value time_cap ~default:d.Ft.time_cap;
  }

let fig_fattree_specs ?time_cap () =
  List.concat_map
    (fun k ->
      let config = fattree_config ?time_cap ~k () in
      List.map
        (fun (slug, proto) ->
          spec
            (Printf.sprintf "fig_fattree/%s/k=%d" slug k)
            proto (Spec.Fattree config))
        fattree_protocols)
    fattree_ks

(* Sub-minute fabric slice for CI: the smallest legal fabric with light
   transfers, still exercising ECMP groups on every tier. *)
let fattree_smoke_specs () =
  let config =
    fattree_config ~incast_bytes:(16 * 1024) ~long_bytes:(64 * 1024)
      ~time_cap:(Time.span_of_ms 500.) ~k:4 ()
  in
  List.map
    (fun (slug, proto) ->
      spec
        (Printf.sprintf "fig_fattree_smoke/%s/k=4" slug)
        proto (Spec.Fattree config))
    fattree_protocols

(* A fast cross-workload slice (sub-minute serial) for CI: exercises every
   workload variant and both marking families. *)
let smoke_specs () =
  let tiny =
    Spec.Longlived
      (longlived_config ~warmup:(Time.span_of_ms 2.)
         ~measure:(Time.span_of_ms 5.) ~n:4 ())
  in
  [
    spec "ci_smoke/longlived/dctcp" sim_dctcp tiny;
    spec "ci_smoke/longlived/dt-dctcp" sim_dt tiny;
    spec "ci_smoke/incast/dt-dctcp" testbed_dt_a
      (Spec.Fanin { incast with F.n_flows = 8; repeats = 2 });
    spec "ci_smoke/completion/dctcp" testbed_dctcp
      (Spec.Fanin { completion with F.n_flows = 8; repeats = 2 });
    spec "ci_smoke/dynamic/dctcp" sim_dctcp
      (Spec.Dynamic
         {
           Dy.default_config with
           Dy.short_senders = 8;
           arrival_rate = 2000.;
           duration = Time.span_of_ms 20.;
           warmup = Time.span_of_ms 5.;
           drain = Time.span_of_ms 20.;
         });
    spec "ci_smoke/convergence/dt-dctcp" sim_dt
      (Spec.Convergence
         {
           Cv.default_config with
           Cv.n_flows = 3;
           join_interval = Time.span_of_ms 40.;
           hold = Time.span_of_ms 40.;
           sample_window = Time.span_of_ms 5.;
         });
    spec "ci_smoke/deadline/d2tcp" sim_dctcp
      (Spec.Fanin (d2tcp_config ~n:6 ~repeats:2 ~aware:true));
  ]

(* --- robustness sweeps (fault injection) --- *)

(* Loss resilience: queue statistics and goodput as random loss grows.
   DT-DCTCP's claim is steadier queues; these sweeps check the claim
   does not depend on a loss-free fabric. *)
let robust_loss_specs ?warmup ?measure () =
  List.concat_map
    (fun p ->
      let config = longlived_config ?warmup ?measure ~n:40 () in
      List.map
        (fun proto ->
          spec
            ~faults:{ Fault.Plan.none with loss_rate = p }
            (named "robust_loss" proto (Printf.sprintf "/p=%g" p))
            proto (Spec.Longlived config))
        [ sim_dctcp; sim_dt ])
    [ 0.0001; 0.001; 0.01; 0.05 ]

(* Oscillation recovery: take the bottleneck down mid-measurement (and,
   separately, halve its rate for a window) and watch the queue trace
   find its operating point again. Trace sampling is on so the recovery
   transient is visible in `dtsim sweep` output. *)
let robust_flap_specs () =
  let config =
    longlived_config ~trace_sampling:(Time.span_of_us 20.) ~n:40 ()
  in
  let flap =
    {
      Fault.Plan.none with
      flaps =
        [
          {
            Fault.Plan.down_at = Time.span_of_ms 150.;
            up_at = Time.span_of_ms 170.;
          };
        ];
    }
  in
  let brownout =
    {
      Fault.Plan.none with
      rate_changes =
        [
          {
            Fault.Plan.at = Time.span_of_ms 150.;
            until = Time.span_of_ms 200.;
            factor = 0.5;
          };
        ];
    }
  in
  List.concat_map
    (fun (slug, plan) ->
      List.map
        (fun proto ->
          spec ~faults:plan
            (named "robust_flap" proto ("/" ^ slug))
            proto (Spec.Longlived config))
        [ sim_dctcp; sim_dt ])
    [ ("flap", flap); ("brownout", brownout) ]

(* ECN degradation: a switch that randomly fails to mark (the "non-ECN
   switch" scenario). Swept across flow counts because the damage is
   congestion-dependent: the more senders, the more a lost mark costs. *)
let robust_suppress_specs ?warmup ?measure () =
  List.concat_map
    (fun n ->
      let config = longlived_config ?warmup ?measure ~n () in
      List.map
        (fun proto ->
          spec
            ~faults:
              {
                Fault.Plan.none with
                suppression = Fault.Plan.Suppress_prob 0.5;
              }
            (named "robust_suppress" proto (Printf.sprintf "/n=%d" n))
            proto (Spec.Longlived config))
        [ sim_dctcp; sim_dt ])
    [ 10; 40; 70; 100 ]

(* Sub-minute faulted slice for CI: one plan of each kind, tiny windows,
   both workload families that support injection. *)
let robust_smoke_specs () =
  let tiny =
    Spec.Longlived
      (longlived_config ~warmup:(Time.span_of_ms 2.)
         ~measure:(Time.span_of_ms 5.) ~n:4 ())
  in
  [
    spec
      ~faults:{ Fault.Plan.none with loss_rate = 0.01 }
      "robust_smoke/longlived/loss" sim_dctcp tiny;
    spec
      ~faults:
        {
          Fault.Plan.none with
          flaps =
            [
              {
                Fault.Plan.down_at = Time.span_of_ms 3.;
                up_at = Time.span_of_ms 4.;
              };
            ];
        }
      "robust_smoke/longlived/flap" sim_dt tiny;
    spec
      ~faults:
        { Fault.Plan.none with suppression = Fault.Plan.Suppress_prob 0.5 }
      "robust_smoke/longlived/suppress" sim_dt tiny;
    spec
      ~faults:{ Fault.Plan.none with jitter_max = Time.span_of_us 20. }
      "robust_smoke/incast/jitter" testbed_dctcp
      (Spec.Fanin { incast with F.n_flows = 8; repeats = 2 });
  ]

(* --- spectral validation ---

   The long-RTT configuration (R0 = 1 ms) in which Theorems 1-2 predict
   finite limit cycles, sampled every 50 us so the queue's dominant
   frequency resolves, with a 50 ms min-RTO to match the longer RTT. *)

let spectrum_ns = [ 60; 100 ]

let spectrum_specs ?(warmup = Time.span_of_ms 200.)
    ?(measure = Time.span_of_ms 400.) () =
  List.concat_map
    (fun n ->
      let config =
        {
          (longlived_config ~warmup ~measure
             ~trace_sampling:(Time.span_of_us 50.) ~n ())
          with
          L.rtt = Time.span_of_ms 1.;
          min_rto = Time.span_of_ms 50.;
        }
      in
      List.map
        (fun proto ->
          spec
            (named "spectrum" proto (Printf.sprintf "/n=%d" n))
            proto (Spec.Longlived config))
        [ sim_dctcp; sim_dt ])
    spectrum_ns

(* --- the perf section's operating point ---

   BENCH_perf.json's events/s baseline. Above N = 128 the buffer grows
   to 4N packets: with 250, N = 512 takes over 200 RTOs in its measured
   window, and the point would time loss recovery rather than the
   steady packet path. *)

let perf_dumbbell_ns = [ 4; 32; 128; 512 ]

let perf_dumbbell_specs ?(warmup = Time.span_of_ms 100.)
    ?(measure = Time.span_of_ms 100.) () =
  List.map
    (fun n ->
      let buffer_pkts = if n > 128 then 4 * n else 250 in
      spec
        (named "perf_dumbbell" sim_dt (Printf.sprintf "/n=%d" n))
        sim_dt
        (Spec.Longlived
           {
             (longlived_config ~warmup ~measure ~n ()) with
             L.buffer_bytes = buffer_pkts * 1500;
             seed = 11L;
           }))
    perf_dumbbell_ns

(* --- one default run per workload ---

   `dtsim sweep --name dtsim.<workload>` runs these, with `--set` for any
   other value. Names and values must stay as they are: manifests
   recorded by earlier CLI runs of each workload name these specs and
   are reproduced byte for byte. *)

let defaults_specs () =
  [
    spec "dtsim.longlived" sim_dctcp (Spec.Longlived L.default_config);
    spec "dtsim.incast" testbed_dctcp
      (Spec.Fanin { incast with F.n_flows = 32 });
    spec "dtsim.completion" testbed_dctcp
      (Spec.Fanin { completion with F.n_flows = 32 });
    spec "dtsim.deadline" testbed_dctcp
      (Spec.Fanin (F.default_config F.Deadline));
    spec "dtsim.dynamic" sim_dctcp (Spec.Dynamic Dy.default_config);
    spec "dtsim.convergence" sim_dctcp (Spec.Convergence Cv.default_config);
  ]

(* --- the registry proper --- *)

type entry = { name : string; doc : string; specs : unit -> Spec.t list }

let entries =
  [
    {
      name = "fig_queue";
      doc = "Figure 1: queue traces, DCTCP vs DT-DCTCP at N=10 and N=100";
      specs = (fun () -> fig_queue_specs ());
    };
    {
      name = "fig_sweep";
      doc = "Figures 10-12: dumbbell flow-count sweep N=10..100";
      specs = (fun () -> fig_sweep_specs ());
    };
    {
      name = "oscillation";
      doc = "oscillation amplitude N-sweep, DCTCP vs DT-DCTCP at N=10,30,60";
      specs = (fun () -> oscillation_specs ());
    };
    {
      name = "fig_incast";
      doc = "Figure 14: Incast goodput collapse on the 1 Gbps star";
      specs = (fun () -> fig_incast_specs ());
    };
    {
      name = "fig_completion";
      doc = "Figure 15: 1MB scatter-gather completion time";
      specs = (fun () -> fig_completion_specs ());
    };
    {
      name = "ablation_thresholds";
      doc = "DT threshold placement (K1,K2) at N=60";
      specs = (fun () -> threshold_ablation_specs ());
    };
    {
      name = "ablation_g";
      doc = "EWMA gain g sweep at N=60";
      specs = (fun () -> g_ablation_specs ());
    };
    {
      name = "ablation_policies";
      doc = "marking-policy family comparison at N=60";
      specs = (fun () -> policy_ablation_specs ());
    };
    {
      name = "ablation_testbed_labels";
      doc = "both readings of the testbed's (K1,K2) labels under Incast";
      specs = (fun () -> testbed_label_specs ());
    };
    {
      name = "d2tcp";
      doc = "extension: deadline-aware backoff vs plain DCTCP";
      specs = (fun () -> d2tcp_specs ());
    };
    {
      name = "sack";
      doc = "extension: SACK vs go-back-N recovery under Incast";
      specs = (fun () -> sack_specs ());
    };
    {
      name = "queue_buildup";
      doc = "extension: mixed traffic queue buildup (DCTCP paper sec. 3.3)";
      specs = (fun () -> queue_buildup_specs ());
    };
    {
      name = "convergence";
      doc = "extension: convergence and fairness under flow churn";
      specs = (fun () -> convergence_specs ());
    };
    {
      name = "fig_buffer";
      doc =
        "extension: buffer-sizing study on a shared Dynamic-Threshold pool";
      specs = (fun () -> fig_buffer_specs ());
    };
    {
      name = "fig_fattree";
      doc = "extension: fat-tree fabric FCT slowdown over ECMP, k=4 and k=8";
      specs = (fun () -> fig_fattree_specs ());
    };
    {
      name = "fig_fattree_smoke";
      doc = "fast fat-tree fabric slice (CI): k=4, light transfers";
      specs = fattree_smoke_specs;
    };
    {
      name = "ci_smoke";
      doc = "fast cross-workload smoke sweep (CI)";
      specs = smoke_specs;
    };
    {
      name = "robust_loss";
      doc = "robustness: queue stats and goodput vs random loss rate";
      specs = (fun () -> robust_loss_specs ());
    };
    {
      name = "robust_flap";
      doc = "robustness: oscillation recovery after a bottleneck flap";
      specs = (fun () -> robust_flap_specs ());
    };
    {
      name = "robust_suppress";
      doc = "robustness: stability vs N when half the ECN marks are lost";
      specs = (fun () -> robust_suppress_specs ());
    };
    {
      name = "robust_smoke";
      doc = "fast faulted smoke sweep (CI): loss, flap, suppression, jitter";
      specs = robust_smoke_specs;
    };
    {
      name = "spectrum";
      doc = "spectral validation: queue frequency at R0=1ms, N=60 and 100";
      specs = (fun () -> spectrum_specs ());
    };
    {
      name = "perf_dumbbell";
      doc = "events/s baseline: DT-DCTCP dumbbell at N=4,32,128,512";
      specs = (fun () -> perf_dumbbell_specs ());
    };
    {
      name = "defaults";
      doc = "one default run per workload (the specs behind dtsim.<workload>)";
      specs = defaults_specs;
    };
  ]

let all () = entries
let names () = List.map (fun e -> e.name) entries
let find name = List.find_opt (fun e -> String.equal e.name name) entries

let select name =
  match find name with
  | Some e -> Some (e.specs ())
  | None ->
      List.find_map
        (fun e ->
          List.find_opt
            (fun (s : Spec.t) -> String.equal s.name name)
            (e.specs ()))
        entries
      |> Option.map (fun s -> [ s ])
