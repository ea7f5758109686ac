module Sim = Engine.Sim
module Time = Engine.Time

type bytes = Per_flow of int | Total of int

type deadline = { base : Time.span; spread : Time.span; aware : bool }

type config = {
  n_flows : int;
  bytes : bytes;
  deadline : deadline option;
  repeats : int;
  rate_bps : float;
  buffer_bytes : int;
  leaf_buffer_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  time_cap : Time.span;
  start_jitter : Time.span;
  initial_cwnd : float;
  sack : bool;
  seed : int64;
}

type kind = Incast | Completion | Deadline

let kind c =
  match (c.deadline, c.bytes) with
  | Some _, _ -> Deadline
  | None, Total _ -> Completion
  | None, Per_flow _ -> Incast

let default_config kind =
  let base =
    {
      n_flows = 16;
      bytes = Per_flow (64 * 1024);
      deadline = None;
      repeats = 20;
      rate_bps = 1e9;
      buffer_bytes = 128 * 1024;
      leaf_buffer_bytes = 512 * 1024;
      segment_bytes = 1500;
      min_rto = Time.span_of_ms 200.;
      time_cap = Time.span_of_sec 10.;
      start_jitter = Time.span_of_us 300.;
      initial_cwnd = 2.;
      sack = false;
      seed = 1L;
    }
  in
  match kind with
  | Incast -> base
  | Completion -> { base with bytes = Total (1024 * 1024) }
  | Deadline ->
      let ms20 = Time.span_of_ms 20. in
      { base with deadline = Some { base = ms20; spread = ms20; aware = false } }

let per_flow_bytes c =
  match c.bytes with
  | Per_flow b -> b
  | Total t -> (t + c.n_flows - 1) / Int.max 1 c.n_flows

type goodput = {
  mean_goodput_bps : float;
  min_goodput_bps : float;
  max_goodput_bps : float;
  mean_completion : float;
  p99_completion : float;
  timeouts_per_run : float;
  incomplete : int;
}

type completion_time = {
  mean_completion_s : float;
  min_completion_s : float;
  max_completion_s : float;
  p99_completion_s : float;
  stddev_completion_s : float;
  timeouts_per_run : float;
  incomplete : int;
}

type deadlines_met = {
  met_fraction : float;
  mean_completion_s : float;
  p99_completion_s : float;
  timeouts_per_run : float;
  incomplete : int;
}

type result =
  | Goodput of goodput
  | Completion_time of completion_time
  | Deadlines_met of deadlines_met

let scenario = function
  | Incast -> "Incast"
  | Completion -> "Completion"
  | Deadline -> "Deadline"

(* Distinct per scenario so repeats never share an RNG stream across
   scenario families. *)
let stride = function Incast -> 7919 | Completion -> 104729 | Deadline -> 6151

let validate kind c =
  let scenario = scenario kind in
  let positive what n = Workload.require_positive ~scenario ~what n in
  let non_negative what s =
    Workload.require_non_negative ~scenario ~what (Time.span_to_int_ns s)
  in
  positive "flows" c.n_flows;
  positive "repeats" c.repeats;
  positive "segment_bytes" c.segment_bytes;
  (match c.bytes with
  | Per_flow b -> positive "bytes_per_flow" b
  | Total t -> positive "total_bytes" t);
  positive "time_cap (ns)" (Time.span_to_int_ns c.time_cap);
  non_negative "start_jitter (ns)" c.start_jitter;
  Option.iter
    (fun d ->
      non_negative "deadline (ns)" d.base;
      non_negative "deadline_spread (ns)" d.spread)
    c.deadline

(* What one repeat leaves of a response. [due] is the flow's start when
   it has no deadline. *)
type response = { start : Time.t; due : Time.t; finish : Time.t option }

let one_repeat (ctx : Workload.ctx) ~track proto c ~seed =
  let sim = Sim.create ~seed () in
  track sim;
  (* One injector per repeat, derived from the repeat seed, so each
     repeat sees an independent but reproducible fault realization. *)
  let marking, attach_faults =
    Fault.Injector.install sim ctx.faults ~seed ~tracer:ctx.tracer
      ~component:"star_bottleneck"
      (proto.Dctcp.Protocol.marking ())
  in
  let star =
    Net.Topology.star_testbed sim ~rate_bps:c.rate_bps
      ~bottleneck_buffer:c.buffer_bytes ~leaf_buffer:c.leaf_buffer_bytes
      ~buffer:ctx.buffer ~marking ()
  in
  attach_faults star.Net.Topology.star_bottleneck;
  let workers = star.Net.Topology.workers in
  let segments = (per_flow_bytes c + c.segment_bytes - 1) / c.segment_bytes in
  let tcp_config =
    {
      Tcp.Sender.default_config with
      segment_bytes = c.segment_bytes;
      min_rto = c.min_rto;
      initial_cwnd = c.initial_cwnd;
      sack = c.sack;
    }
  in
  let rng = Sim.rng sim in
  let remaining = ref c.n_flows in
  (* Per flow: the start jitter, then the deadline jitter (drawn only
     when there is a deadline). Creating a flow schedules nothing, so
     creating and starting each in turn keeps the event order. The
     tracer is wrapped once, not once per flow. *)
  let tracer = Some ctx.tracer in
  let flows =
    Array.init c.n_flows (fun i ->
        let start =
          Time.of_ns (Engine.Rng.jitter_span rng ~max:c.start_jitter)
        in
        let due, cc =
          match c.deadline with
          | None -> (start, proto.Dctcp.Protocol.cc)
          | Some d ->
              let due =
                Time.add (Time.add start d.base)
                  (Engine.Rng.jitter_span rng ~max:d.spread)
              in
              ( due,
                if d.aware then
                  Dctcp.D2tcp_cc.cc ~total_segments:segments ~deadline:due ()
                else proto.Dctcp.Protocol.cc )
        in
        let flow =
          Tcp.Flow.create sim ~src:workers.(i mod Array.length workers)
            ~dst:star.Net.Topology.aggregator ~flow:i ~cc ?tracer
            ~config:tcp_config ~limit_segments:segments
            ~on_complete:(fun _ -> decr remaining)
            ()
        in
        Tcp.Flow.start_at flow start;
        (flow, start, due))
  in
  let cap = Time.of_ns c.time_cap in
  Workload.run_slices sim ~cap ~pending:(fun () -> !remaining > 0);
  ( Array.map
      (fun (f, start, due) ->
        { start; due; finish = Tcp.Flow.completion_time f })
      flows,
    Workload.sum_senders Tcp.Sender.timeouts
      (Array.map (fun (f, _, _) -> f) flows) )

let finished r = Option.is_some r.finish

(* The query's completion: when its last response arrives, or
   [time_cap] if any response is still outstanding. *)
let query_completion c responses =
  if Array.for_all finished responses then
    Time.to_sec
      (Array.fold_left
         (fun acc r ->
           match r.finish with Some t when Time.(acc < t) -> t | _ -> acc)
         Time.zero responses)
  else Time.span_to_sec c.time_cap

let goodput_of_completion c completion_s =
  if completion_s <= 0. then 0.
  else float_of_int (c.n_flows * per_flow_bytes c * 8) /. completion_s

let timeouts_per_run repeats =
  float_of_int (Array.fold_left (fun acc (_, t) -> acc + t) 0 repeats)
  /. float_of_int (Array.length repeats)

let count p xs = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 xs

let goodput c repeats : goodput =
  let completions = Array.map (fun (rs, _) -> query_completion c rs) repeats in
  let d =
    Stats.Descriptive.of_array (Array.map (goodput_of_completion c) completions)
  in
  {
    mean_goodput_bps = Stats.Descriptive.mean d;
    min_goodput_bps = Stats.Descriptive.min d;
    max_goodput_bps = Stats.Descriptive.max d;
    mean_completion =
      Stats.Descriptive.mean (Stats.Descriptive.of_array completions);
    p99_completion = Stats.Percentile.of_array completions 99.;
    timeouts_per_run = timeouts_per_run repeats;
    incomplete = count (fun (rs, _) -> not (Array.for_all finished rs)) repeats;
  }

let completion_time c repeats : completion_time =
  let completions = Array.map (fun (rs, _) -> query_completion c rs) repeats in
  let d = Stats.Descriptive.of_array completions in
  {
    mean_completion_s = Stats.Descriptive.mean d;
    min_completion_s = Stats.Descriptive.min d;
    max_completion_s = Stats.Descriptive.max d;
    p99_completion_s = Stats.Percentile.of_array completions 99.;
    stddev_completion_s = Stats.Descriptive.stddev d;
    timeouts_per_run = timeouts_per_run repeats;
    incomplete = count (fun (rs, _) -> not (Array.for_all finished rs)) repeats;
  }

let deadlines_met c repeats : deadlines_met =
  (* Flows of the last repeat first: the mean sums in this order, and
     recorded results depend on it. *)
  let responses = Array.concat (List.rev_map fst (Array.to_list repeats)) in
  let n = Array.length responses in
  let completions =
    Array.map
      (fun r ->
        match r.finish with
        | Some t -> Time.span_to_sec (Time.diff t r.start)
        | None -> Time.span_to_sec c.time_cap)
      responses
  in
  {
    met_fraction =
      float_of_int
        (count
           (fun r ->
             match r.finish with Some t -> Time.(t <= r.due) | None -> false)
           responses)
      /. float_of_int n;
    mean_completion_s = Array.fold_left ( +. ) 0. completions /. float_of_int n;
    p99_completion_s = Stats.Percentile.of_array completions 99.;
    timeouts_per_run = timeouts_per_run repeats;
    incomplete = count (fun r -> not (finished r)) responses;
  }

let run ctx proto c =
  let kind = kind c in
  validate kind c;
  let track = Workload.watch ctx in
  let repeats =
    Array.init c.repeats (fun r ->
        one_repeat ctx ~track proto c
          ~seed:(Workload.repeat_seed ~base:c.seed ~stride:(stride kind) r))
  in
  match kind with
  | Incast -> Goodput (goodput c repeats)
  | Completion -> Completion_time (completion_time c repeats)
  | Deadline -> Deadlines_met (deadlines_met c repeats)
