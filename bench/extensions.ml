(* Extension benches beyond the reproduced paper: D2TCP (the deadline-aware
   DCTCP derivative the paper's introduction cites) and SACK recovery, both
   on the star fan-in; the queue-buildup mixed-traffic and convergence
   experiments from the original DCTCP paper. Every section runs its
   Exp.Registry spec list through Bench_common.run_specs. *)

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
