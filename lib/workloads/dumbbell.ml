module Sim = Engine.Sim
module Time = Engine.Time

type longlived = {
  n_flows : int;
  warmup : Time.span;
  measure : Time.span;
  trace_sampling : Time.span option;
  alpha_sample_period : Time.span;
  stagger : Time.span;
}

type dynamic = {
  background_flows : int;
  short_senders : int;
  arrival_rate : float;
  short_flow_segments : int;
  duration : Time.span;
  warmup : Time.span;
  drain : Time.span;
}

type convergence = {
  n_flows : int;
  join_interval : Time.span;
  hold : Time.span;
  sample_window : Time.span;
  convergence_band : float;
}

type schedule =
  | Longlived of longlived
  | Dynamic of dynamic
  | Convergence of convergence

type config = {
  bottleneck_rate_bps : float;
  rtt : Time.span;
  buffer_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  seed : int64;
  schedule : schedule;
}

let longlived : longlived =
  {
    n_flows = 10;
    warmup = Time.span_of_ms 100.;
    measure = Time.span_of_ms 200.;
    trace_sampling = None;
    alpha_sample_period = Time.span_of_ms 1.;
    stagger = Time.span_of_ms 1.;
  }

let dynamic : dynamic =
  {
    background_flows = 2;
    short_senders = 32;
    arrival_rate = 5000.;
    short_flow_segments = 14;
    duration = Time.span_of_ms 200.;
    warmup = Time.span_of_ms 50.;
    drain = Time.span_of_ms 100.;
  }

let convergence : convergence =
  {
    n_flows = 5;
    join_interval = Time.span_of_ms 500.;
    hold = Time.span_of_ms 500.;
    sample_window = Time.span_of_ms 10.;
    convergence_band = 0.25;
  }

let default_config schedule =
  let gbps, pkts =
    match schedule with
    | Convergence _ -> (1e9, 500)
    | Longlived _ | Dynamic _ -> (10e9, 1000)
  in
  {
    bottleneck_rate_bps = gbps;
    rtt = Time.span_of_us 100.;
    buffer_bytes = pkts * 1500;
    segment_bytes = 1500;
    min_rto = Time.span_of_ms 10.;
    seed = 1L;
    schedule;
  }

type queue = {
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

type fct = {
  short_flows_started : int;
  short_flows_completed : int;
  fct_mean_s : float;
  fct_p50_s : float;
  fct_p99_s : float;
  fct_max_s : float;
  background_throughput_bps : float;
  mean_queue_pkts : float;
  std_queue_pkts : float;
}

type shares = {
  shares : float array array;
  window_s : float;
  convergence_times_s : float array;
  jain_steady : float;
  utilization_steady : float;
}

type result = Queue of queue | Fct of fct | Shares of shares

let span_ns = Time.span_to_int_ns


let validate c =
  let positive scenario what n = Workload.require_positive ~scenario ~what n in
  match c.schedule with
  | Longlived s ->
      let positive = positive "Longlived" in
      positive "flows" s.n_flows;
      positive "measure (ns)" (span_ns s.measure);
      (* Both sampling periods are checked here, not by Obs.Sampler.start
         at the end of the warm-up. *)
      positive "alpha_sample_period (ns)" (span_ns s.alpha_sample_period);
      Option.iter
        (fun period -> positive "trace_sampling (ns)" (span_ns period))
        s.trace_sampling
  | Dynamic s ->
      positive "Dynamic" "background flows" s.background_flows;
      positive "Dynamic" "senders" s.short_senders;
      if s.arrival_rate <= 0. then invalid_arg "Dynamic.run: need arrivals"
  | Convergence s ->
      positive "Convergence" "flows" s.n_flows;
      positive "Convergence" "sample_window (ns)" (span_ns s.sample_window)

(* The one set-up: the simulator, the bottleneck's marking (behind the
   flip observer and the fault injector), the topology, and a flow
   constructor that gives every flow the same sender configuration and
   sums every flow's [sender.*] counters into [ctx.metrics]. Creating a
   flow schedules nothing. *)
type bed = {
  sim : Sim.t;
  net : Net.Topology.dumbbell;
  flow :
    ?limit_segments:int ->
    ?on_complete:(Tcp.Flow.t -> unit) ->
    int ->
    Net.Host.t ->
    Tcp.Flow.t;
}

let set_up (ctx : Workload.ctx) (proto : Dctcp.Protocol.t) c =
  let { Workload.tracer; metrics; _ } = ctx in
  let sim = Sim.create ~seed:c.seed () in
  Workload.watch ctx sim;
  (* The hysteresis policy lives inside the marking closure, so the run,
     which has both the sim and the tracer in scope, observes it. *)
  let flips_up = ref 0 and flips_down = ref 0 in
  let on_flip ~marking ~occ_bytes =
    if marking then incr flips_up else incr flips_down;
    if Obs.Trace.enabled tracer Obs.Trace.C_mark_state_flip then
      Obs.Trace.emit_flip tracer ~time:(Sim.now sim) ~component:"bottleneck"
        ~marking ~occ_bytes
  in
  let marking, attach_faults =
    Fault.Injector.install sim ctx.faults ~seed:c.seed ~tracer ?metrics
      ~component:"bottleneck"
      (proto.Dctcp.Protocol.marking ~on_flip ())
  in
  let n_senders =
    match c.schedule with
    | Longlived { n_flows; _ } | Convergence { n_flows; _ } -> n_flows
    | Dynamic s -> s.background_flows + s.short_senders
  in
  let net =
    Net.Topology.dumbbell sim ~n_senders
      ~bottleneck_rate_bps:c.bottleneck_rate_bps ~rtt:c.rtt
      ~buffer_bytes:c.buffer_bytes ~buffer:ctx.buffer ~marking ~tracer
      ?metrics ()
  in
  attach_faults net.Net.Topology.bottleneck;
  let config =
    {
      Tcp.Sender.default_config with
      segment_bytes = c.segment_bytes;
      min_rto = c.min_rto;
    }
  in
  let flows = ref [] and flow_tracer = Some tracer in
  let flow ?limit_segments ?on_complete i src =
    let f =
      Tcp.Flow.create sim ~src ~dst:net.Net.Topology.receiver ~flow:i
        ~cc:proto.Dctcp.Protocol.cc ?tracer:flow_tracer ~config ?limit_segments
        ?on_complete ()
    in
    flows := f :: !flows;
    f
  in
  Option.iter
    (fun m ->
      let senders f () = Workload.sum_senders f (Array.of_list !flows) in
      List.iter
        (fun (name, read) ->
          Obs.Metrics.probe m name (fun () -> float_of_int (read ())))
        [
          ("marking.flips_up", fun () -> !flips_up);
          ("marking.flips_down", fun () -> !flips_down);
          ("sender.retransmissions", senders Tcp.Sender.retransmissions);
          ("sender.timeouts", senders Tcp.Sender.timeouts);
          ("sender.fast_retransmits", senders Tcp.Sender.fast_retransmits);
          ("sender.ece_acks", senders Tcp.Sender.ece_acks);
        ])
    metrics;
  { sim; net; flow }

let delivered flows = Array.map Tcp.Flow.segments_delivered flows

(* --- Longlived: staggered infinite flows, queue moments and alpha --- *)

let run_longlived { sim; net; flow } c (s : longlived) : queue =
  let flows = Array.mapi flow net.Net.Topology.senders in
  let rng = Sim.rng sim in
  Array.iter
    (fun f ->
      let offset = Engine.Rng.jitter_span rng ~max:s.stagger in
      Tcp.Flow.start_at f (Time.of_ns offset))
    flows;
  let bottleneck = net.Net.Topology.bottleneck in
  let bqueue = Net.Port.queue bottleneck in
  let t_warm = Time.of_ns s.warmup in
  let t_stop = Time.add t_warm s.measure in
  (* Measurement bookkeeping armed at the end of the warm-up. *)
  let alpha_stats = Stats.Descriptive.create () in
  let at_warm = ref [||] in
  (* The queue series: one sample at the warm-up instant and one per
     [period] up to [t_stop], so [measure / period + 1] of them. *)
  let series =
    Option.map
      (fun period ->
        let n = (span_ns s.measure / span_ns period) + 1 in
        (period, Array.make n 0., Array.make n 0., ref 0))
      s.trace_sampling
  in
  ignore
    (Sim.schedule_at sim t_warm (fun () ->
         Net.Queue_disc.reset_stats bqueue;
         Net.Port.reset_counters bottleneck;
         at_warm := delivered flows;
         Option.iter
           (fun (period, times, pkts, len) ->
             Obs.Sampler.start sim ~period ~stop_at:t_stop (fun now ->
                 times.(!len) <- Time.to_sec now;
                 pkts.(!len) <-
                   float_of_int (Net.Queue_disc.occupancy_packets bqueue);
                 incr len))
           series;
         Obs.Sampler.start sim ~period:s.alpha_sample_period ~stop_at:t_stop
           (fun _now ->
             for i = 0 to Array.length flows - 1 do
               let a = Tcp.Flow.alpha flows.(i) in
               if Array.length a > 0 then Stats.Descriptive.add alpha_stats a.(0)
             done)));
  Sim.run ~until:t_stop sim;
  let throughput_bps =
    float_of_int (Net.Port.bytes_sent bottleneck * 8)
    /. Time.span_to_sec s.measure
  in
  let enq = Net.Queue_disc.enqueued bqueue in
  let pkt = float_of_int c.segment_bytes in
  {
    mean_queue_pkts = Net.Queue_disc.mean_occupancy_bytes bqueue /. pkt;
    std_queue_pkts = Net.Queue_disc.stddev_occupancy_bytes bqueue /. pkt;
    max_queue_pkts =
      float_of_int (Net.Queue_disc.max_occupancy_bytes bqueue) /. pkt;
    mean_alpha = Stats.Descriptive.mean alpha_stats;
    throughput_bps;
    utilization = throughput_bps /. c.bottleneck_rate_bps;
    marked_fraction =
      (if enq = 0 then 0.
       else float_of_int (Net.Queue_disc.marked bqueue) /. float_of_int enq);
    drops = Net.Queue_disc.drops bqueue;
    timeouts = Workload.sum_senders Tcp.Sender.timeouts flows;
    fast_retransmits = Workload.sum_senders Tcp.Sender.fast_retransmits flows;
    jain_fairness =
      Stats.Fairness.jain
        (Array.map2
           (fun now warm -> float_of_int (now - warm))
           (delivered flows) !at_warm);
    queue_series =
      Option.map
        (fun (_, times, pkts, len) ->
          Array.init !len (fun i -> (times.(i), pkts.(i))))
        series;
  }

(* --- Dynamic: Poisson short flows over background flows, their FCT --- *)

let run_dynamic { sim; net; flow } c (s : dynamic) : fct =
  let senders = net.Net.Topology.senders in
  (* Background long-lived flows on the first hosts. *)
  let background =
    Array.init s.background_flows (fun i ->
        let f = flow i senders.(i) in
        Tcp.Flow.start_at f (Time.of_us (float_of_int i));
        f)
  in
  let rng = Engine.Rng.split (Sim.rng sim) in
  let t_measure_start = Time.of_ns s.warmup in
  let t_last_arrival = Time.add t_measure_start s.duration in
  let t_stop = Time.add t_last_arrival s.drain in
  let started = ref 0 and fcts = ref [] in
  (* Poisson arrivals of short flows during the measurement window. *)
  let rec arrival () =
    let now = Sim.now sim in
    if Time.(now <= t_last_arrival) then begin
      let src = senders.(s.background_flows + (!started mod s.short_senders)) in
      let short = ref None in
      let f =
        flow ~limit_segments:s.short_flow_segments
          ~on_complete:(fun _ ->
            fcts := Time.span_to_sec (Time.diff (Sim.now sim) now) :: !fcts;
            (* Free the host's flow binding for reuse. *)
            Option.iter Tcp.Flow.close !short)
          (s.background_flows + !started)
          src
      in
      short := Some f;
      incr started;
      Tcp.Flow.start f;
      let gap = Engine.Rng.exponential rng ~mean:(1. /. s.arrival_rate) in
      ignore (Sim.schedule_after sim (Time.span_of_sec gap) arrival)
    end
  in
  let bqueue = Net.Port.queue net.Net.Topology.bottleneck in
  let at_start = ref [||] in
  ignore
    (Sim.schedule_at sim t_measure_start (fun () ->
         Net.Queue_disc.reset_stats bqueue;
         at_start := delivered background;
         arrival ()));
  Sim.run ~until:t_stop sim;
  let fcts = Array.of_list !fcts in
  let n_done = Array.length fcts in
  let pct p = if n_done = 0 then 0. else Stats.Percentile.of_array fcts p in
  let bg_segments =
    Array.fold_left ( + ) 0
      (Array.map2 ( - ) (delivered background) !at_start)
  in
  let window_s = Time.span_to_sec (Time.diff t_stop t_measure_start) in
  {
    short_flows_started = !started;
    short_flows_completed = n_done;
    fct_mean_s =
      (if n_done = 0 then 0.
       else Array.fold_left ( +. ) 0. fcts /. float_of_int n_done);
    fct_p50_s = pct 50.;
    fct_p99_s = pct 99.;
    fct_max_s = pct 100.;
    background_throughput_bps =
      float_of_int (bg_segments * c.segment_bytes * 8) /. window_s;
    mean_queue_pkts = Net.Queue_disc.mean_occupancy_packets bqueue;
    std_queue_pkts = Net.Queue_disc.stddev_occupancy_packets bqueue;
  }

(* --- Convergence: a join-then-leave staircase, windowed shares --- *)

let run_convergence { sim; net; flow } c (s : convergence) : shares =
  let flows = Array.mapi flow net.Net.Topology.senders in
  let join_ns = span_ns s.join_interval in
  let join_time i = Time.of_int_ns (join_ns * i) in
  let all_joined = join_time (s.n_flows - 1) in
  let departures_start = Time.add all_joined s.hold in
  (* A flow leaves by closing (it stops transmitting), in the order the
     flows joined. *)
  let leave_time i =
    Time.add departures_start (Time.span_of_int_ns (join_ns * i))
  in
  Array.iteri
    (fun i f ->
      Tcp.Flow.start_at f (join_time i);
      ignore (Sim.schedule_at sim (leave_time i) (fun () -> Tcp.Flow.close f)))
    flows;
  let t_end = leave_time (s.n_flows - 1) in
  let window_s = Time.span_to_sec s.sample_window in
  let n_windows = int_of_float (Float.round (Time.to_sec t_end /. window_s)) in
  let shares = Array.make_matrix n_windows s.n_flows 0. in
  let prev = ref (Array.make s.n_flows 0) in
  for w = 0 to n_windows - 1 do
    ignore
      (Sim.schedule_at sim
         (Time.of_sec (float_of_int (w + 1) *. window_s))
         (fun () ->
           let now = delivered flows in
           Array.iteri
             (fun i d ->
               shares.(w).(i) <-
                 Stats.Fairness.goodput_bps ~segments:(d - !prev.(i))
                   ~segment_bytes:c.segment_bytes ~window_s)
             now;
           prev := now))
  done;
  Sim.run ~until:t_end sim;
  let window_of t = int_of_float (Time.to_sec t /. window_s) in
  (* Flows active mid-window [w]: joined and not yet left. *)
  let active_at w =
    let t = (float_of_int w +. 0.5) *. window_s in
    let passed time =
      List.length
        (List.filter
           (fun i -> t >= Time.to_sec (time i))
           (List.init s.n_flows Fun.id))
    in
    Int.max 1 (passed join_time - passed leave_time)
  in
  (* Convergence time per flow: first window after its join where the
     windowed goodput stays within the band of the instantaneous fair
     share for three consecutive windows. *)
  let convergence_time i =
    let leave_w = Int.min n_windows (window_of (leave_time i)) in
    let ok w =
      let fair = c.bottleneck_rate_bps /. float_of_int (active_at w) in
      Float.abs (shares.(w).(i) -. fair) <= s.convergence_band *. fair
    in
    let rec scan w =
      if w + 2 >= leave_w then Float.nan
      else if ok w && ok (w + 1) && ok (w + 2) then
        (float_of_int w *. window_s) -. Time.to_sec (join_time i)
      else scan (w + 1)
    in
    scan (window_of (join_time i) + 1)
  in
  (* Steady state: all flows active. *)
  let first = window_of all_joined + 1 in
  let steady =
    List.init
      (Int.max 0 (window_of departures_start - first))
      (fun k -> first + k)
    |> List.filter (fun w -> w >= 0 && w < n_windows)
  in
  let steady_mean =
    Array.init s.n_flows (fun i ->
        List.fold_left (fun acc w -> acc +. shares.(w).(i)) 0. steady
        /. float_of_int (Int.max 1 (List.length steady)))
  in
  {
    shares;
    window_s;
    convergence_times_s = Array.init s.n_flows convergence_time;
    jain_steady = Stats.Fairness.jain steady_mean;
    utilization_steady =
      Array.fold_left ( +. ) 0. steady_mean /. c.bottleneck_rate_bps;
  }

let run ctx proto c =
  validate c;
  let bed = set_up ctx proto c in
  match c.schedule with
  | Longlived s -> Queue (run_longlived bed c s)
  | Dynamic s -> Fct (run_dynamic bed c s)
  | Convergence s -> Shares (run_convergence bed c s)
