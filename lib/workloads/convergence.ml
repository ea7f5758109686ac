module Sim = Engine.Sim
module Time = Engine.Time

type config = {
  n_flows : int;
  join_interval : Time.span;
  hold : Time.span;
  sample_window : Time.span;
  bottleneck_rate_bps : float;
  rtt : Time.span;
  buffer_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  convergence_band : float;
  seed : int64;
}

let default_config =
  {
    n_flows = 5;
    join_interval = Time.span_of_ms 500.;
    hold = Time.span_of_ms 500.;
    sample_window = Time.span_of_ms 10.;
    bottleneck_rate_bps = 1e9;
    rtt = Time.span_of_us 100.;
    buffer_bytes = 500 * 1500;
    segment_bytes = 1500;
    min_rto = Time.span_of_ms 10.;
    convergence_band = 0.25;
    seed = 1L;
  }

type result = {
  shares : float array array;
  window_s : float;
  convergence_times_s : float array;
  jain_steady : float;
  utilization_steady : float;
}

let run ?metrics ?faults ?(buffer = Net.Buffer_mgr.Static)
    (proto : Dctcp.Protocol.t) config =
  Workload.require_positive ~scenario:"Convergence" ~what:"flows"
    config.n_flows;
  Workload.require_positive ~scenario:"Convergence" ~what:"sample_window (ns)"
    (Time.span_to_int_ns config.sample_window);
  let sim = Sim.create ~seed:config.seed () in
  Workload.engine_probes metrics sim;
  let marking, attach_faults =
    Fault.Injector.install sim faults ~seed:config.seed ~component:"bottleneck"
      (proto.Dctcp.Protocol.marking ())
  in
  let net =
    Net.Topology.dumbbell sim ~n_senders:config.n_flows
      ~bottleneck_rate_bps:config.bottleneck_rate_bps ~rtt:config.rtt
      ~buffer_bytes:config.buffer_bytes ~buffer ~marking ()
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
          ~cc:proto.Dctcp.Protocol.cc ~config:tcp_config
          ~echo:proto.Dctcp.Protocol.echo ())
      net.Net.Topology.senders
  in
  let join_ns = Time.span_to_int_ns config.join_interval in
  let join_time i = Time.of_int_ns (join_ns * i) in
  let all_joined = join_time (config.n_flows - 1) in
  let departures_start = Time.add all_joined config.hold in
  (* Departure = the sender simply stops growing its demand: we close the
     flow (stop transmitting) at its departure instant, mirroring the join
     staircase. *)
  let leave_time i =
    Time.add departures_start (Time.span_of_int_ns (join_ns * i))
  in
  Array.iteri
    (fun i f ->
      Tcp.Flow.start_at f (join_time i);
      ignore (Sim.schedule_at sim (leave_time i) (fun () -> Tcp.Flow.close f)))
    flows;
  let t_end = leave_time (config.n_flows - 1) in
  let window_s = Time.span_to_sec config.sample_window in
  let n_windows =
    int_of_float
      (Float.round (Time.to_sec t_end /. window_s))
  in
  let shares = Array.make_matrix n_windows config.n_flows 0. in
  let prev = Array.make config.n_flows 0 in
  for w = 0 to n_windows - 1 do
    ignore
      (Sim.schedule_at sim
         (Time.of_sec (float_of_int (w + 1) *. window_s))
         (fun () ->
           Array.iteri
             (fun i f ->
               let d = Tcp.Flow.segments_delivered f in
               shares.(w).(i) <-
                 Stats.Fairness.goodput_bps ~segments:(d - prev.(i))
                   ~segment_bytes:config.segment_bytes ~window_s;
               prev.(i) <- d)
             flows))
  done;
  Sim.run ~until:t_end sim;
  (* Convergence time per flow: first window after its join where the
     windowed goodput stays within the band of the instantaneous fair
     share for three consecutive windows. *)
  let active_at w =
    let t = (float_of_int w +. 0.5) *. window_s in
    let joined =
      Array.to_list flows
      |> List.mapi (fun i _ -> if t >= Time.to_sec (join_time i) then 1 else 0)
      |> List.fold_left ( + ) 0
    in
    let left =
      Array.to_list flows
      |> List.mapi (fun i _ -> if t >= Time.to_sec (leave_time i) then 1 else 0)
      |> List.fold_left ( + ) 0
    in
    Int.max 1 (joined - left)
  in
  let convergence_times_s =
    Array.mapi
      (fun i _ ->
        let join_w =
          int_of_float (Time.to_sec (join_time i) /. window_s) + 1
        in
        let leave_w =
          Int.min n_windows
            (int_of_float (Time.to_sec (leave_time i) /. window_s))
        in
        let ok w =
          let fair =
            config.bottleneck_rate_bps /. float_of_int (active_at w)
          in
          Float.abs (shares.(w).(i) -. fair) <= config.convergence_band *. fair
        in
        let rec scan w =
          if w + 2 >= leave_w then Float.nan
          else if ok w && ok (w + 1) && ok (w + 2) then
            (float_of_int w *. window_s) -. Time.to_sec (join_time i)
          else scan (w + 1)
        in
        scan join_w)
      flows
  in
  (* Steady state: all flows active. *)
  let w_lo = int_of_float (Time.to_sec all_joined /. window_s) + 1 in
  let w_hi = int_of_float (Time.to_sec departures_start /. window_s) - 1 in
  let steady_totals = Array.make config.n_flows 0. in
  let count = ref 0 in
  for w = w_lo to w_hi do
    if w >= 0 && w < n_windows then begin
      incr count;
      Array.iteri (fun i v -> steady_totals.(i) <- steady_totals.(i) +. v)
        shares.(w)
    end
  done;
  let steady_mean =
    Array.map (fun v -> v /. float_of_int (Int.max 1 !count)) steady_totals
  in
  {
    shares;
    window_s;
    convergence_times_s;
    jain_steady = Stats.Fairness.jain steady_mean;
    utilization_steady =
      Array.fold_left ( +. ) 0. steady_mean /. config.bottleneck_rate_bps;
  }
