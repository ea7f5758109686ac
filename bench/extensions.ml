(* Extension benches beyond the reproduced paper: D2TCP (the deadline-aware
   DCTCP derivative the paper's introduction cites) and SACK recovery, both
   on the star fan-in; the queue-buildup mixed-traffic and convergence
   experiments from the original DCTCP paper; and parking-lot fairness.

   All sections but parking_lot (custom multi-hop topology wiring) run
   their Exp.Registry spec lists through Bench_common.run_specs. *)

module Time = Engine.Time
module F = Workloads.Fanin
module Dy = Workloads.Dynamic

let d2tcp () =
  Bench_common.section_header
    "Extension: D2TCP (deadline-aware backoff) vs DCTCP";
  let repeats = Bench_common.scale_int 10 in
  let flow_counts = [ 6; 8; 10; 12; 16; 20 ] in
  (* Registry order: per flow count, a (dctcp, d2tcp) pair. *)
  let outcomes =
    Bench_common.run_specs (Exp.Registry.d2tcp_specs ~flow_counts ~repeats ())
  in
  let t =
    Stats.Table.create
      ~title:
        "fraction of deadlines met (300 KB flows, deadlines uniform 2-6 ms, \
         10 Gbps star)"
      ~columns:
        [
          Stats.Table.column "flows";
          Stats.Table.column "DCTCP met";
          Stats.Table.column "D2TCP met";
          Stats.Table.column "DCTCP p99 (ms)";
          Stats.Table.column "D2TCP p99 (ms)";
        ]
  in
  List.iteri
    (fun i n ->
      let dctcp = Bench_common.deadline_of outcomes.(2 * i) in
      let d2tcp = Bench_common.deadline_of outcomes.((2 * i) + 1) in
      Stats.Table.add_row t
        [
          string_of_int n;
          Stats.Table.fmt_f 3 dctcp.F.met_fraction;
          Stats.Table.fmt_f 3 d2tcp.F.met_fraction;
          Stats.Table.fmt_f 2 (dctcp.F.p99_completion_s *. 1e3);
          Stats.Table.fmt_f 2 (d2tcp.F.p99_completion_s *. 1e3);
        ])
    flow_counts;
  Stats.Table.print t;
  Printf.printf
    "\nD2TCP's imminence-gated backoff (p = alpha^d) trades bandwidth toward\n\
     near-deadline flows; the gain concentrates in the mid fan-in range\n\
     where windows are still several segments (at high fan-in every window\n\
     is pinned at ~1 segment and no backoff policy can shift bandwidth).\n\
     This implementation omits the original's hardware pacing.\n"

let sack () =
  Bench_common.section_header
    "Extension: SACK vs go-back-N recovery in the Incast regime";
  let repeats = Bench_common.scale_int 10 in
  let flow_counts = [ 28; 32; 34; 36; 40; 44 ] in
  (* Registry order: per flow count, a (go-back-n, sack) pair. *)
  let outcomes =
    Bench_common.run_specs (Exp.Registry.sack_specs ~flow_counts ~repeats ())
  in
  let t =
    Stats.Table.create
      ~title:"DCTCP Incast goodput (Mbps) and timeouts with each recovery"
      ~columns:
        [
          Stats.Table.column "flows";
          Stats.Table.column "go-back-N";
          Stats.Table.column "to/run";
          Stats.Table.column "SACK";
          Stats.Table.column "to/run";
        ]
  in
  List.iteri
    (fun i n ->
      let cell j =
        let r = Bench_common.incast_of outcomes.((2 * i) + j) in
        ( Stats.Table.fmt_f 1
            (Bench_common.mbps r.F.mean_goodput_bps),
          Stats.Table.fmt_f 1 r.F.timeouts_per_run )
      in
      let g_gbn, t_gbn = cell 0 in
      let g_sack, t_sack = cell 1 in
      Stats.Table.add_row t [ string_of_int n; g_gbn; t_gbn; g_sack; t_sack ])
    flow_counts;
  Stats.Table.print t;
  Printf.printf
    "\nA negative result worth keeping: the columns are identical. Incast\n\
     losses here are whole-window tail losses on 1-2 segment windows, so\n\
     triple duplicate ACKs never occur, fast retransmit (where SACK acts)\n\
     never engages, and every recovery is a min-RTO wait. SACK's benefit\n\
     shows on partial window losses instead (see the lossy-transfer tests:\n\
     ~5x less resend overhead than go-back-N).\n"

let convergence () =
  Bench_common.section_header
    "Extension: convergence under flow churn (DCTCP paper's convergence test)";
  let interval = Bench_common.scale_span (Engine.Time.span_of_ms 400.) in
  let outcomes =
    Bench_common.run_specs
      (Exp.Registry.convergence_specs ~join_interval:interval ~hold:interval ())
  in
  Array.iter
    (fun (o : Exp.Runner.outcome) ->
      let r = Bench_common.convergence_of o in
      let module C = Workloads.Convergence in
      Printf.printf "\n%s: per-flow share over time (Mbps)\n"
        o.Exp.Runner.spec.Exp.Spec.name;
      let series =
        List.init 5 (fun i ->
            ( Printf.sprintf "flow %d" i,
              Array.map (fun w -> w.(i) /. 1e6) r.C.shares ))
      in
      print_string
        (Stats.Ascii_plot.render ~height:11 ~series ());
      Printf.printf
        "  convergence times (ms): %s\n  Jain (all active): %.3f   \
         utilization: %.3f\n"
        (String.concat ", "
           (Array.to_list
              (Array.map
                 (fun t ->
                   if Float.is_nan t then "-" else Printf.sprintf "%.0f" (t *. 1e3))
                 r.C.convergence_times_s)))
        r.C.jain_steady r.C.utilization_steady)
    outcomes;
  Printf.printf
    "\nFlows join every 400 ms then leave in join order; both protocols\n\
     converge each newcomer to its fair share within tens of ms (tens to\n\
     hundreds of RTTs) and keep near-1 Jain fairness while all five are\n\
     active.\n"

let parking_lot () =
  Bench_common.section_header
    "Extension: multi-bottleneck fairness (parking lot, 3 hops)";
  let t =
    Stats.Table.create
      ~title:
        "goodput (Mbps): one long flow across 3 marked trunks vs one cross \
         flow per hop (1 Gbps trunks)"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "protocol";
          Stats.Table.column "long flow";
          Stats.Table.column "cross 0";
          Stats.Table.column "cross 1";
          Stats.Table.column "cross 2";
          Stats.Table.column "long/fair";
        ]
  in
  List.iter
    (fun (name, proto) ->
      let sim = Engine.Sim.create ~seed:11L () in
      let pl =
        Net.Topology.parking_lot sim ~hops:3 ~rate_bps:1e9
          ~buffer_bytes:(300 * 1500)
          ~marking:(fun () -> proto.Dctcp.Protocol.marking ()) ()
      in
      let tcp_config =
        { Tcp.Sender.default_config with min_rto = Time.span_of_ms 10. }
      in
      let mk ~flow src dst =
        Tcp.Flow.create sim ~src ~dst ~flow ~cc:proto.Dctcp.Protocol.cc
          ~config:tcp_config ~echo:proto.Dctcp.Protocol.echo ()
      in
      let long = mk ~flow:0 pl.Net.Topology.long_src pl.Net.Topology.long_dst in
      let crosses =
        Array.init 3 (fun i ->
            mk ~flow:(1 + i)
              pl.Net.Topology.cross_srcs.(i)
              pl.Net.Topology.cross_dsts.(i))
      in
      Tcp.Flow.start long;
      Array.iter Tcp.Flow.start crosses;
      let warm = Bench_common.scale_span (Time.span_of_ms 100.) in
      let measure = Bench_common.scale_span (Time.span_of_ms 300.) in
      Engine.Sim.run ~until:(Time.of_ns warm) sim;
      let base_long = Tcp.Flow.segments_delivered long in
      let base_cross = Array.map Tcp.Flow.segments_delivered crosses in
      Engine.Sim.run ~until:(Time.add (Time.of_ns warm) measure) sim;
      let window = Time.span_to_sec measure in
      let rate base f =
        float_of_int ((Tcp.Flow.segments_delivered f - base) * 1500 * 8)
        /. window /. 1e6
      in
      let long_rate = rate base_long long in
      let cross_rates = Array.mapi (fun i f -> rate base_cross.(i) f) crosses in
      Stats.Table.add_row t
        [
          name;
          Stats.Table.fmt_f 1 long_rate;
          Stats.Table.fmt_f 1 cross_rates.(0);
          Stats.Table.fmt_f 1 cross_rates.(1);
          Stats.Table.fmt_f 1 cross_rates.(2);
          Stats.Table.fmt_f 2 (long_rate /. 500.);
        ])
    [
      ("DCTCP", Bench_common.dctcp_sim ());
      ("DT-DCTCP", Bench_common.dt_sim ());
      ("Reno", Dctcp.Protocol.reno ());
    ];
  Stats.Table.print t;
  Printf.printf
    "\nThe long flow crosses three marked queues, so it sees roughly the\n\
     union of the marks and falls below the per-link fair share of 500 Mbps\n\
     (the classic multi-bottleneck beat-down); cross flows absorb the rest.\n"

let queue_buildup () =
  Bench_common.section_header
    "Extension: queue buildup under mixed traffic (DCTCP paper sec. 3.3)";
  let outcomes =
    Bench_common.run_specs
      (Exp.Registry.queue_buildup_specs
         ~duration:(Bench_common.scale_span (Time.span_of_ms 200.)) ())
  in
  let t =
    Stats.Table.create
      ~title:
        "2 background long flows + Poisson 21 KB short flows (5k/s), 10 Gbps"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "protocol";
          Stats.Table.column "short FCT p50 (us)";
          Stats.Table.column "p99 (us)";
          Stats.Table.column "max (us)";
          Stats.Table.column "bg tput (Gbps)";
          Stats.Table.column "queue (pkts)";
        ]
  in
  Array.iter
    (fun (o : Exp.Runner.outcome) ->
      let r = Bench_common.dynamic_of o in
      Stats.Table.add_row t
        [
          o.Exp.Runner.spec.Exp.Spec.name;
          Stats.Table.fmt_f 0 (r.Dy.fct_p50_s *. 1e6);
          Stats.Table.fmt_f 0 (r.Dy.fct_p99_s *. 1e6);
          Stats.Table.fmt_f 0 (r.Dy.fct_max_s *. 1e6);
          Stats.Table.fmt_f 2 (r.Dy.background_throughput_bps /. 1e9);
          Printf.sprintf "%.1f +- %.1f" r.Dy.mean_queue_pkts
            r.Dy.std_queue_pkts;
        ])
    outcomes;
  Stats.Table.print t;
  Printf.printf
    "\nReno's standing queue inflates every short flow's completion by the\n\
     queueing delay (~6x at the median here); the DCTCP family keeps the\n\
     queue at the marking threshold so short flows cut through, and\n\
     DT-DCTCP's lower queue floor shaves latency further - the paper's\n\
     motivation for low, stable queues in one table.\n"
