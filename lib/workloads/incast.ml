module Sim = Engine.Sim
module Time = Engine.Time

type config = {
  n_flows : int;
  bytes_per_flow : int;
  repeats : int;
  rate_bps : float;
  buffer_bytes : int;
  leaf_buffer_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  time_cap : Time.span;
  start_jitter : Time.span;
  initial_cwnd : float;
  seed : int64;
}

let default_config =
  {
    n_flows = 16;
    bytes_per_flow = 64 * 1024;
    repeats = 20;
    rate_bps = 1e9;
    buffer_bytes = 128 * 1024;
    leaf_buffer_bytes = 512 * 1024;
    segment_bytes = 1500;
    min_rto = Time.span_of_ms 200.;
    time_cap = Time.span_of_sec 10.;
    start_jitter = Time.span_of_us 300.;
    initial_cwnd = 2.;
    seed = 1L;
  }

type result = {
  mean_goodput_bps : float;
  min_goodput_bps : float;
  max_goodput_bps : float;
  mean_completion : float;
  p99_completion : float;
  timeouts_per_run : float;
  incomplete : int;
}

type run_outcome = {
  completion_s : float;  (** [time_cap] when incomplete. *)
  run_timeouts : int;
  finished : bool;
}

let one_repeat ?(sack = false) ?faults ~buffer (proto : Dctcp.Protocol.t)
    config ~seed =
  let sim = Sim.create ~seed () in
  (* One injector per repeat, derived from the repeat seed, so each
     repeat sees an independent but reproducible fault realization. *)
  let marking, attach_faults =
    Fault.Injector.install sim faults ~seed ~component:"star_bottleneck"
      (proto.Dctcp.Protocol.marking ())
  in
  let star =
    Net.Topology.star_testbed sim ~rate_bps:config.rate_bps
      ~bottleneck_buffer:config.buffer_bytes
      ~leaf_buffer:config.leaf_buffer_bytes ~buffer ~marking ()
  in
  attach_faults star.Net.Topology.star_bottleneck;
  let workers = star.Net.Topology.workers in
  let segments =
    (config.bytes_per_flow + config.segment_bytes - 1) / config.segment_bytes
  in
  let tcp_config =
    {
      Tcp.Sender.default_config with
      segment_bytes = config.segment_bytes;
      min_rto = config.min_rto;
      initial_cwnd = config.initial_cwnd;
      sack;
    }
  in
  let remaining = ref config.n_flows in
  let last_done = ref Time.zero in
  let flows =
    Array.init config.n_flows (fun i ->
        let src = workers.(i mod Array.length workers) in
        Tcp.Flow.create sim ~src ~dst:star.Net.Topology.aggregator ~flow:i
          ~cc:proto.Dctcp.Protocol.cc ~config:tcp_config
          ~echo:proto.Dctcp.Protocol.echo ~limit_segments:segments
          ~on_complete:(fun _ ->
            decr remaining;
            last_done := Sim.now sim)
          ())
  in
  let rng = Sim.rng sim in
  Array.iter
    (fun f ->
      let offset = Engine.Rng.jitter_span rng ~max:config.start_jitter in
      Tcp.Flow.start_at f (Time.of_ns offset))
    flows;
  let cap = Time.of_ns config.time_cap in
  Workload.run_slices sim ~cap ~pending:(fun () -> !remaining > 0);
  let run_timeouts =
    Array.fold_left
      (fun acc f -> acc + Tcp.Sender.timeouts (Tcp.Flow.sender f))
      0 flows
  in
  let finished = !remaining = 0 in
  {
    completion_s =
      (if finished then Time.to_sec !last_done
       else Time.span_to_sec config.time_cap);
    run_timeouts;
    finished;
  }

let goodput_of_completion config completion_s =
  if completion_s <= 0. then 0.
  else
    float_of_int (config.n_flows * config.bytes_per_flow * 8) /. completion_s

let run_with_sack ?faults ?(buffer = Net.Buffer_mgr.Static) ~sack proto
    config =
  Workload.require_positive ~scenario:"Incast" ~what:"flows" config.n_flows;
  Workload.require_positive ~scenario:"Incast" ~what:"repeats" config.repeats;
  Workload.require_positive ~scenario:"Incast" ~what:"segment_bytes"
    config.segment_bytes;
  let outcomes =
    Array.init config.repeats (fun r ->
        one_repeat ~sack ?faults ~buffer proto config
          ~seed:(Workload.repeat_seed ~base:config.seed ~stride:7919 r))
  in
  let completions = Array.map (fun o -> o.completion_s) outcomes in
  let goodputs = Array.map (goodput_of_completion config) completions in
  let d = Stats.Descriptive.of_array goodputs in
  {
    mean_goodput_bps = Stats.Descriptive.mean d;
    min_goodput_bps = Stats.Descriptive.min d;
    max_goodput_bps = Stats.Descriptive.max d;
    mean_completion =
      Stats.Descriptive.mean (Stats.Descriptive.of_array completions);
    p99_completion = Stats.Percentile.of_array completions 99.;
    timeouts_per_run =
      float_of_int
        (Array.fold_left (fun acc o -> acc + o.run_timeouts) 0 outcomes)
      /. float_of_int config.repeats;
    incomplete =
      Array.fold_left
        (fun acc o -> if o.finished then acc else acc + 1)
        0 outcomes;
  }

let run ?faults ?buffer proto config =
  run_with_sack ?faults ?buffer ~sack:false proto config
