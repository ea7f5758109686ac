(* Performance sections: the macro events/s baseline behind
   BENCH_perf.json, its per-event-class breakdown, and the tracing-overhead
   table. Per-stage ns/op rows live in perfbench/rows.ml. *)

(* --- tracing overhead: events/s with the observability layer in each of
   its sink configurations, on a fixed DT-DCTCP dumbbell scenario. The
   null-tracer row is the "<2% regression with sinks disabled" guard. --- *)

let tracing_scenario ?profiler tracer =
  let sim = Engine.Sim.create ~seed:7L () in
  (match profiler with
  | None -> ()
  | Some p -> Obs.Selfprof.attach p sim);
  let d =
    Net.Topology.dumbbell sim ~n_senders:4 ~bottleneck_rate_bps:10e9
      ~rtt:(Engine.Time.span_of_us 100.) ~buffer_bytes:(100 * 1500)
      ~marking:
        (Dctcp.Marking_policies.double_threshold ~k1_bytes:(30 * 1500)
           ~k2_bytes:(50 * 1500) ())
      ~tracer ()
  in
  let flows =
    Array.mapi
      (fun i src ->
        Tcp.Flow.create sim ~src ~dst:d.Net.Topology.receiver ~flow:i
          ~cc:(Dctcp.Dctcp_cc.cc ()) ~tracer ())
      d.Net.Topology.senders
  in
  Array.iter Tcp.Flow.start flows;
  let until =
    Engine.Time.of_ns
      (Exp.Claim.scaled ~quick:!Bench_common.quick
         (Engine.Time.span_of_ms 200.))
  in
  Obs.Profile.run_sim ~until sim

let tracing_overhead () =
  Bench_common.section_header "Performance: tracing overhead (events/s)";
  let untraced = tracing_scenario Obs.Trace.null in
  let ring_buf = Obs.Trace.ring ~capacity:65536 in
  let ring = tracing_scenario (Obs.Trace.create (Obs.Trace.Ring ring_buf)) in
  let tmp = Filename.temp_file "dtsim_trace" ".jsonl" in
  let oc = open_out tmp in
  let jsonl = tracing_scenario (Obs.Trace.create (Obs.Trace.Jsonl oc)) in
  close_out oc;
  Sys.remove tmp;
  let t =
    Stats.Table.create ~title:"DT-DCTCP dumbbell, 4 flows"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "sink";
          Stats.Table.column "events/s";
          Stats.Table.column "vs null";
        ]
  in
  let row name (r : Obs.Profile.run) =
    Stats.Table.add_row t
      [
        name;
        Printf.sprintf "%.0f" r.Obs.Profile.events_per_s;
        Printf.sprintf "%.2fx"
          (r.Obs.Profile.events_per_s /. untraced.Obs.Profile.events_per_s);
      ]
  in
  (* Self-profiler axis on the same scenario: attached (counts every
     event, wall-times 1 in 32) vs the detached single-branch path. The
     attached row is the "<2% with profiling off, bounded when on"
     guard's measured half; the null row above doubles as its off half
     (no profiler is ever constructed there). *)
  let prof = Obs.Selfprof.create () in
  let profiled = tracing_scenario ~profiler:prof Obs.Trace.null in
  row "null (disabled)" untraced;
  row "ring (64k records)" ring;
  row "jsonl (tempfile)" jsonl;
  row "self-profiler (1/32 timed)" profiled;
  Stats.Table.print t;
  Printf.printf "  profiler observed %d events, timed %d\n"
    (Obs.Selfprof.total prof)
    (Obs.Selfprof.sampled_total prof);
  Bench_common.write_manifest ~section:"obs"
    ~wall_s:
      (untraced.Obs.Profile.wall_s +. ring.Obs.Profile.wall_s
     +. jsonl.Obs.Profile.wall_s +. profiled.Obs.Profile.wall_s)
    ~seed:7L ~events:untraced.Obs.Profile.events
    ~params:
      [
        ("scenario", Obs.Json.String "dt-dctcp dumbbell, 4 flows");
        ("ring_capacity", Obs.Json.Int 65536);
        ("selfprof_sample_every", Obs.Json.Int 32);
      ]
    ~metrics:
      [
        ("events_per_s.null", untraced.Obs.Profile.events_per_s);
        ("events_per_s.ring", ring.Obs.Profile.events_per_s);
        ("events_per_s.jsonl", jsonl.Obs.Profile.events_per_s);
        ("events_per_s.selfprof", profiled.Obs.Profile.events_per_s);
        ( "selfprof.events_observed",
          float_of_int (Obs.Selfprof.total prof) );
        ( "selfprof.events_timed",
          float_of_int (Obs.Selfprof.sampled_total prof) );
        ("ring.records_kept", float_of_int (Obs.Trace.ring_length ring_buf));
        ("ring.records_total", float_of_int (Obs.Trace.ring_total ring_buf));
      ]
    ()

(* --- macro events/s: the repo's tracked engine-throughput baseline.
   A DT-DCTCP dumbbell (the paper's operating point) at N ∈ {4, 32, 128}
   long-lived flows, run untraced; the per-N events/s land in
   BENCH_perf.json so every PR can be compared against the last recorded
   baseline on the same machine. --- *)

let macro_ns = [ 4; 32; 128; 512 ]

let macro_scenario ?profiler ~n () =
  let sim = Engine.Sim.create ~seed:11L () in
  (match profiler with
  | None -> ()
  | Some p -> Obs.Selfprof.attach p sim);
  (* The high-fan-in point needs incast handling the tracked N <= 128
     points must not get (so their workloads stay comparable across
     baselines): with the fixed 250-packet buffer, 512 simultaneous
     initial windows overflow the port outright and every flow parks in
     RTO within the quick horizon — ~4k events that benchmark the timer
     wheel, not the packet hot path. Scaling the buffer with fan-in and
     pacing connection starts across one RTT keeps the point a live
     steady-state dumbbell. *)
  let incast = n > 128 in
  let buffer_pkts = if incast then 4 * n else 250 in
  let d =
    Net.Topology.dumbbell sim ~n_senders:n ~bottleneck_rate_bps:10e9
      ~rtt:(Engine.Time.span_of_us 100.) ~buffer_bytes:(buffer_pkts * 1500)
      ~marking:
        (Dctcp.Marking_policies.double_threshold ~k1_bytes:(30 * 1500)
           ~k2_bytes:(50 * 1500) ())
      ()
  in
  let flows =
    Array.mapi
      (fun i src ->
        Tcp.Flow.create sim ~src ~dst:d.Net.Topology.receiver ~flow:i
          ~cc:(Dctcp.Dctcp_cc.cc ()) ())
      d.Net.Topology.senders
  in
  if incast then
    Array.iteri
      (fun i f ->
        Tcp.Flow.start_at f
          (Engine.Time.of_int_ns (i * 100_000 / n)))
      flows
  else Array.iter Tcp.Flow.start flows;
  let until =
    Engine.Time.of_ns
      (Exp.Claim.scaled ~quick:!Bench_common.quick
         (Engine.Time.span_of_ms 200.))
  in
  Obs.Profile.run_sim ~until sim

(* Per-event-class cost breakdown on the N=32 operating point: exact
   event counts plus sampled mean wall-clock per class, from the engine
   self-profiler. Shows where an events/s regression lives (timer churn
   vs link transmit vs delivery) rather than just that one exists. *)
let macro_class_breakdown () =
  let prof = Obs.Selfprof.create () in
  let r = macro_scenario ~profiler:prof ~n:32 () in
  let t =
    Stats.Table.create ~title:"per-event-class breakdown (N=32, 1/32 timed)"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "class";
          Stats.Table.column "count";
          Stats.Table.column "share";
          Stats.Table.column "mean us";
        ]
  in
  Array.iter
    (fun cls ->
      let count = Obs.Selfprof.count prof cls in
      if count > 0 then
        Stats.Table.add_row t
          [
            Engine.Event_class.name cls;
            string_of_int count;
            Printf.sprintf "%.1f%%"
              (100. *. float_of_int count
              /. float_of_int (Obs.Selfprof.total prof));
            Printf.sprintf "%.3f" (Obs.Selfprof.mean_us prof cls);
          ])
    Engine.Event_class.all;
  Stats.Table.print t;
  Printf.printf "  profiled %d events, timed %d (profiled run: %.0f events/s)\n"
    (Obs.Selfprof.total prof)
    (Obs.Selfprof.sampled_total prof)
    r.Obs.Profile.events_per_s;
  (* The per-class breakdown rides along as a perf artifact for CI (not
     a manifest: wall-clock means are not deterministic). *)
  let oc = open_out "BENCH_perf_classes.json" in
  output_string oc (Obs.Json.to_string (Obs.Selfprof.to_json prof));
  output_char oc '\n';
  close_out oc;
  print_endline "[artifact BENCH_perf_classes.json]"

let macro_events_per_s () =
  Bench_common.section_header "Performance: macro events/s (DT-DCTCP dumbbell)";
  let runs = List.map (fun n -> (n, macro_scenario ~n ())) macro_ns in
  let t =
    Stats.Table.create ~title:"events/s by flow count"
      ~columns:
        [
          Stats.Table.column "N";
          Stats.Table.column "events";
          Stats.Table.column "events/s";
        ]
  in
  List.iter
    (fun (n, (r : Obs.Profile.run)) ->
      Stats.Table.add_row t
        [
          string_of_int n;
          string_of_int r.Obs.Profile.events;
          Printf.sprintf "%.0f" r.Obs.Profile.events_per_s;
        ])
    runs;
  Stats.Table.print t;
  let wall_s =
    List.fold_left (fun acc (_, r) -> acc +. r.Obs.Profile.wall_s) 0. runs
  in
  let events =
    List.fold_left (fun acc (_, r) -> acc + r.Obs.Profile.events) 0 runs
  in
  Bench_common.write_manifest ~section:"perf" ~wall_s ~seed:11L ~events
    ~params:
      [
        ("scenario", Obs.Json.String "dt-dctcp dumbbell, long-lived flows");
        ( "flow_counts",
          Obs.Json.List (List.map (fun n -> Obs.Json.Int n) macro_ns) );
      ]
    ~metrics:
      (List.concat_map
         (fun (n, (r : Obs.Profile.run)) ->
           [
             (Printf.sprintf "events_per_s.n%d" n, r.Obs.Profile.events_per_s);
             ( Printf.sprintf "events.n%d" n,
               float_of_int r.Obs.Profile.events );
           ])
         runs)
    ()

let run () =
  macro_events_per_s ();
  macro_class_breakdown ();
  tracing_overhead ()
