module Time = Engine.Time

type config = {
  n_flows : int;
  total_bytes : int;
  repeats : int;
  rate_bps : float;
  buffer_bytes : int;
  leaf_buffer_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  time_cap : Time.span;
  seed : int64;
}

let default_config =
  {
    n_flows = 16;
    total_bytes = 1024 * 1024;
    repeats = 20;
    rate_bps = 1e9;
    buffer_bytes = 128 * 1024;
    leaf_buffer_bytes = 512 * 1024;
    segment_bytes = 1500;
    min_rto = Time.span_of_ms 200.;
    time_cap = Time.span_of_sec 10.;
    seed = 1L;
  }

type result = {
  mean_completion_s : float;
  min_completion_s : float;
  max_completion_s : float;
  p99_completion_s : float;
  stddev_completion_s : float;
  timeouts_per_run : float;
  incomplete : int;
}

let run ?faults ?buffer proto config =
  Workload.require_positive ~scenario:"Completion" ~what:"flows"
    config.n_flows;
  Workload.require_positive ~scenario:"Completion" ~what:"repeats"
    config.repeats;
  Workload.require_positive ~scenario:"Completion" ~what:"segment_bytes"
    config.segment_bytes;
  (* Reuse the Incast machinery: the workload is Incast with a per-flow
     share of the fixed total. *)
  let per_flow =
    (config.total_bytes + config.n_flows - 1) / config.n_flows
  in
  let incast_config =
    {
      Incast.n_flows = config.n_flows;
      bytes_per_flow = per_flow;
      repeats = 1;
      rate_bps = config.rate_bps;
      buffer_bytes = config.buffer_bytes;
      leaf_buffer_bytes = config.leaf_buffer_bytes;
      segment_bytes = config.segment_bytes;
      min_rto = config.min_rto;
      time_cap = config.time_cap;
      start_jitter = Incast.default_config.Incast.start_jitter;
      initial_cwnd = Incast.default_config.Incast.initial_cwnd;
      seed = config.seed;
    }
  in
  let completions = Array.make config.repeats 0. in
  let timeouts = ref 0 in
  let incomplete = ref 0 in
  for r = 0 to config.repeats - 1 do
    let res =
      Incast.run ?faults ?buffer proto
        {
          incast_config with
          Incast.seed = Workload.repeat_seed ~base:config.seed ~stride:104729 r;
        }
    in
    completions.(r) <- res.Incast.mean_completion;
    timeouts := !timeouts + int_of_float res.Incast.timeouts_per_run;
    incomplete := !incomplete + res.Incast.incomplete
  done;
  let d = Stats.Descriptive.of_array completions in
  {
    mean_completion_s = Stats.Descriptive.mean d;
    min_completion_s = Stats.Descriptive.min d;
    max_completion_s = Stats.Descriptive.max d;
    p99_completion_s = Stats.Percentile.of_array completions 99.;
    stddev_completion_s = Stats.Descriptive.stddev d;
    timeouts_per_run = float_of_int !timeouts /. float_of_int config.repeats;
    incomplete = !incomplete;
  }
