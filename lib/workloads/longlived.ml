module Sim = Engine.Sim
module Time = Engine.Time

type config = {
  n_flows : int;
  bottleneck_rate_bps : float;
  rtt : Time.span;
  buffer_bytes : int;
  segment_bytes : int;
  warmup : Time.span;
  measure : Time.span;
  trace_sampling : Time.span option;
  alpha_sample_period : Time.span;
  stagger : Time.span;
  min_rto : Time.span;
  seed : int64;
}

let default_config =
  {
    n_flows = 10;
    bottleneck_rate_bps = 10e9;
    rtt = Time.span_of_us 100.;
    buffer_bytes = 1000 * 1500;
    segment_bytes = 1500;
    warmup = Time.span_of_ms 100.;
    measure = Time.span_of_ms 200.;
    trace_sampling = None;
    alpha_sample_period = Time.span_of_ms 1.;
    stagger = Time.span_of_ms 1.;
    min_rto = Time.span_of_ms 10.;
    seed = 1L;
  }

type result = {
  mean_queue_pkts : float;
  std_queue_pkts : float;
  max_queue_pkts : float;
  mean_alpha : float;
  throughput_bps : float;
  utilization : float;
  marked_fraction : float;
  drops : int;
  timeouts : int;
  fast_retransmits : int;
  jain_fairness : float;
  queue_series : (float * float) array option;
}

let run ?(tracer = Obs.Trace.null) ?metrics ?faults
    ?(buffer = Net.Buffer_mgr.Static) ?on_sim (proto : Dctcp.Protocol.t)
    config =
  Workload.require_positive ~scenario:"Longlived" ~what:"flows" config.n_flows;
  Workload.require_positive ~scenario:"Longlived" ~what:"measure (ns)"
    (Time.span_to_int_ns config.measure);
  (* Both sampling periods are checked here, not by Obs.Sampler.start at
     the end of the warm-up. *)
  Workload.require_positive ~scenario:"Longlived"
    ~what:"alpha_sample_period (ns)"
    (Time.span_to_int_ns config.alpha_sample_period);
  Option.iter
    (fun period ->
      Workload.require_positive ~scenario:"Longlived"
        ~what:"trace_sampling (ns)" (Time.span_to_int_ns period))
    config.trace_sampling;
  let sim = Sim.create ~seed:config.seed () in
  Workload.engine_probes metrics sim;
  (match on_sim with None -> () | Some f -> f sim);
  (* The hysteresis flip observer: the policy lives inside the marking
     closure, so the run — which has both the sim and the tracer in
     scope — is the place to build it. *)
  let flips_up = ref 0 and flips_down = ref 0 in
  let on_flip ~marking ~occ_bytes =
    if marking then incr flips_up else incr flips_down;
    if Obs.Trace.enabled tracer Obs.Trace.C_mark_state_flip then
      Obs.Trace.emit_flip tracer ~time:(Sim.now sim) ~component:"bottleneck"
        ~marking ~occ_bytes
  in
  let marking, attach_faults =
    Fault.Injector.install sim faults ~seed:config.seed ~tracer ?metrics
      ~component:"bottleneck"
      (proto.Dctcp.Protocol.marking ~on_flip ())
  in
  let net =
    Net.Topology.dumbbell sim ~n_senders:config.n_flows
      ~bottleneck_rate_bps:config.bottleneck_rate_bps ~rtt:config.rtt
      ~buffer_bytes:config.buffer_bytes ~buffer ~marking ~tracer ?metrics ()
  in
  attach_faults net.Net.Topology.bottleneck;
  let tcp_config =
    {
      Tcp.Sender.default_config with
      segment_bytes = config.segment_bytes;
      min_rto = config.min_rto;
    }
  in
  let flows =
    Array.mapi
      (fun i src ->
        Tcp.Flow.create sim ~src ~dst:net.Net.Topology.receiver ~flow:i
          ~cc:proto.Dctcp.Protocol.cc ~tracer ~config:tcp_config
          ~echo:proto.Dctcp.Protocol.echo ())
      net.Net.Topology.senders
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let sum f = float_of_int (Array.fold_left (fun a x -> a + f x) 0 flows) in
      Obs.Metrics.probe m "marking.flips_up" (fun () ->
          float_of_int !flips_up);
      Obs.Metrics.probe m "marking.flips_down" (fun () ->
          float_of_int !flips_down);
      Obs.Metrics.probe m "sender.retransmissions" (fun () ->
          sum (fun f -> Tcp.Sender.retransmissions (Tcp.Flow.sender f)));
      Obs.Metrics.probe m "sender.timeouts" (fun () ->
          sum (fun f -> Tcp.Sender.timeouts (Tcp.Flow.sender f)));
      Obs.Metrics.probe m "sender.fast_retransmits" (fun () ->
          sum (fun f -> Tcp.Sender.fast_retransmits (Tcp.Flow.sender f)));
      Obs.Metrics.probe m "sender.ece_acks" (fun () ->
          sum (fun f -> Tcp.Sender.ece_acks (Tcp.Flow.sender f))));
  let nf = Array.length flows in
  let rng = Sim.rng sim in
  Array.iter
    (fun f ->
      let offset = Engine.Rng.jitter_span rng ~max:config.stagger in
      Tcp.Flow.start_at f (Time.of_ns offset))
    flows;
  let bottleneck = net.Net.Topology.bottleneck in
  let bqueue = Net.Port.queue bottleneck in
  let t_warm = Time.of_ns config.warmup in
  let t_stop = Time.add t_warm config.measure in
  (* Measurement bookkeeping armed at the end of the warm-up. *)
  let alpha_stats = Stats.Descriptive.create () in
  let delivered_at_warm = Array.make nf 0 in
  (* The queue series: one sample at the warm-up instant and one per
     [period] up to [t_stop], so [measure / period + 1] of them. *)
  let series =
    Option.map
      (fun period ->
        let n =
          (Time.span_to_int_ns config.measure / Time.span_to_int_ns period) + 1
        in
        (period, Array.make n 0., Array.make n 0., ref 0))
      config.trace_sampling
  in
  ignore
    (Sim.schedule_at sim t_warm (fun () ->
         Net.Queue_disc.reset_stats bqueue;
         Net.Port.reset_counters bottleneck;
         Array.iteri
           (fun i f -> delivered_at_warm.(i) <- Tcp.Flow.segments_delivered f)
           flows;
         (match series with
         | Some (period, times, pkts, len) ->
             Obs.Sampler.start sim ~period ~stop_at:t_stop (fun now ->
                 times.(!len) <- Time.to_sec now;
                 pkts.(!len) <-
                   float_of_int (Net.Queue_disc.occupancy_packets bqueue);
                 incr len)
         | None -> ());
         Obs.Sampler.start sim ~period:config.alpha_sample_period
           ~stop_at:t_stop (fun _now ->
             Array.iter
               (fun f ->
                 match Tcp.Flow.alpha f with
                 | Some a -> Stats.Descriptive.add alpha_stats a
                 | None -> ())
               flows)));
  Sim.run ~until:t_stop sim;
  let measure_s = Time.span_to_sec config.measure in
  let throughput_bps =
    float_of_int (Net.Port.bytes_sent bottleneck * 8) /. measure_s
  in
  let enq = Net.Queue_disc.enqueued bqueue in
  let marked_fraction =
    if enq = 0 then 0.
    else float_of_int (Net.Queue_disc.marked bqueue) /. float_of_int enq
  in
  let per_flow =
    Array.mapi
      (fun i f ->
        float_of_int (Tcp.Flow.segments_delivered f - delivered_at_warm.(i)))
      flows
  in
  let queue_series =
    Option.map
      (fun (_, times, pkts, len) ->
        Array.init !len (fun i -> (times.(i), pkts.(i))))
      series
  in
  let pkt = float_of_int config.segment_bytes in
  {
    mean_queue_pkts = Net.Queue_disc.mean_occupancy_bytes bqueue /. pkt;
    std_queue_pkts = Net.Queue_disc.stddev_occupancy_bytes bqueue /. pkt;
    max_queue_pkts =
      float_of_int (Net.Queue_disc.max_occupancy_bytes bqueue) /. pkt;
    mean_alpha = Stats.Descriptive.mean alpha_stats;
    throughput_bps;
    utilization = throughput_bps /. config.bottleneck_rate_bps;
    marked_fraction;
    drops = Net.Queue_disc.drops bqueue;
    timeouts =
      Array.fold_left
        (fun acc f -> acc + Tcp.Sender.timeouts (Tcp.Flow.sender f))
        0 flows;
    fast_retransmits =
      Array.fold_left
        (fun acc f -> acc + Tcp.Sender.fast_retransmits (Tcp.Flow.sender f))
        0 flows;
    jain_fairness = Stats.Fairness.jain per_flow;
    queue_series;
  }
