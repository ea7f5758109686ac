module Sim = Engine.Sim
module Time = Engine.Time

type config = {
  k : int;
  incast_fanin : int;
  incast_bytes : int;
  long_flows : int;
  long_bytes : int;
  rate_bps : float;
  link_delay : Time.span;
  queue_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  time_cap : Time.span;
  start_spread : Time.span;
  initial_cwnd : float;
  seed : int64;
}

let default_config =
  {
    k = 4;
    incast_fanin = 8;
    incast_bytes = 128 * 1024;
    long_flows = 8;
    long_bytes = 512 * 1024;
    rate_bps = 1e9;
    link_delay = Time.span_of_us 5.;
    queue_bytes = 128 * 1024;
    segment_bytes = 1500;
    min_rto = Time.span_of_ms 10.;
    time_cap = Time.span_of_sec 5.;
    start_spread = Time.span_of_ms 1.;
    initial_cwnd = 2.;
    seed = 1L;
  }

type result = {
  slowdown_p50 : float;
  slowdown_p95 : float;
  slowdown_p99 : float;
  slowdown_p999 : float;
  slowdown_mean : float;
  slowdown_max : float;
  flows_total : int;
  timeouts : int;
  incomplete : int;
  no_route_drops : int;
}

(* One-way link traversals between two hosts: 2 within a rack
   (host-edge-host), 4 within a pod, 6 across pods. *)
let hops ~half ~hosts_per_pod ~src ~dst =
  if src / half = dst / half then 2
  else if src / hosts_per_pod = dst / hosts_per_pod then 4
  else 6

(* Idle-network FCT: round-trip propagation (request out, last ACK
   back), serialization of the whole transfer at line rate, plus one
   segment's store-and-forward delay at each intermediate hop. Slow
   start, queueing and loss recovery are exactly what the slowdown
   ratio is meant to expose, so they are not modeled here. *)
let ideal_fct_ns config ~hops ~bytes =
  let seg = config.segment_bytes in
  let segments = (bytes + seg - 1) / seg in
  let ser_ns b =
    int_of_float (float_of_int (b * 8) /. config.rate_bps *. 1e9)
  in
  let prop = 2 * hops * Time.span_to_int_ns config.link_delay in
  Time.span_of_int_ns
    (prop + ser_ns (segments * seg) + ((hops - 1) * ser_ns seg))

let total_no_route (ft : Net.Topology.fat_tree) =
  let sum = Array.fold_left (fun a sw -> a + Net.Switch.no_route_drops sw) in
  sum (sum (sum 0 ft.Net.Topology.edges) ft.Net.Topology.aggs)
    ft.Net.Topology.cores

let run (ctx : Workload.ctx) (proto : Dctcp.Protocol.t) config =
  (match ctx.faults with
  | None -> ()
  | Some _ ->
      invalid_arg "Fattree.run: fault injection is not supported on the fabric");
  let positive what n = Workload.require_positive ~scenario:"Fattree" ~what n in
  let non_negative what n =
    Workload.require_non_negative ~scenario:"Fattree" ~what n
  in
  positive "incast_fanin" config.incast_fanin;
  non_negative "long_flows" config.long_flows;
  positive "incast_bytes" config.incast_bytes;
  positive "long_bytes" config.long_bytes;
  positive "time_cap (ns)" (Time.span_to_int_ns config.time_cap);
  non_negative "start_spread (ns)" (Time.span_to_int_ns config.start_spread);
  let sim = Sim.create ~seed:config.seed () in
  ctx.on_sim sim;
  let buffer = ctx.buffer in
  let ft =
    Net.Topology.fat_tree sim ~k:config.k ~rate_bps:config.rate_bps
      ~link_delay:config.link_delay ~queue_bytes:config.queue_bytes
      ~edge_buffer:buffer ~agg_buffer:buffer ~core_buffer:buffer
      ~marking:proto.Dctcp.Protocol.marking ~tracer:ctx.tracer ()
  in
  let half = config.k / 2 in
  let n_hosts = Array.length ft.Net.Topology.hosts in
  let hosts_per_pod = half * half in
  let n_racks = n_hosts / half in
  let n_short = n_racks * config.incast_fanin in
  let total = n_short + config.long_flows in
  let src_a = Array.make total 0 in
  let dst_a = Array.make total 0 in
  let bytes_a = Array.make total 0 in
  let rng = Sim.rng sim in
  (* Per-rack incast: every rack's first host is a victim fed by
     [incast_fanin] senders drawn uniformly from the other racks. *)
  for r = 0 to n_racks - 1 do
    let victim = r * half in
    for j = 0 to config.incast_fanin - 1 do
      let i = (r * config.incast_fanin) + j in
      let rec pick () =
        let s = Engine.Rng.int rng ~bound:n_hosts in
        if s / half = r then pick () else s
      in
      src_a.(i) <- pick ();
      dst_a.(i) <- victim;
      bytes_a.(i) <- config.incast_bytes
    done
  done;
  (* Long flows cross half the fabric: dst sits n_hosts/2 beyond src,
     which is always a different pod. *)
  for l = 0 to config.long_flows - 1 do
    let i = n_short + l in
    let src = Engine.Rng.int rng ~bound:n_hosts in
    src_a.(i) <- src;
    dst_a.(i) <- (src + (n_hosts / 2)) mod n_hosts;
    bytes_a.(i) <- config.long_bytes
  done;
  let tcp_config =
    {
      Tcp.Sender.default_config with
      segment_bytes = config.segment_bytes;
      min_rto = config.min_rto;
      initial_cwnd = config.initial_cwnd;
    }
  in
  let remaining = ref total in
  let finished = Array.make total false in
  let done_at = Array.make total Time.zero in
  (* Wrapped once, not once per flow. *)
  let tracer = Some ctx.tracer in
  let flows =
    Array.init total (fun i ->
        let segments =
          (bytes_a.(i) + config.segment_bytes - 1) / config.segment_bytes
        in
        Tcp.Flow.create sim ~src:ft.Net.Topology.hosts.(src_a.(i))
          ~dst:ft.Net.Topology.hosts.(dst_a.(i))
          ~flow:i ~cc:proto.Dctcp.Protocol.cc ?tracer ~config:tcp_config
          ~echo:proto.Dctcp.Protocol.echo ~limit_segments:segments
          ~on_complete:(fun _ ->
            decr remaining;
            finished.(i) <- true;
            done_at.(i) <- Sim.now sim)
          ())
  in
  (match ctx.metrics with
  | None -> ()
  | Some m ->
      (* Not [Workload.watch]: the fabric's manifests record no
         [engine.heap_high_water], and the benchmark's reference digests
         pin them as they are. *)
      Obs.Metrics.probe m "engine.events_processed" (fun () ->
          float_of_int (Sim.events_processed sim));
      Obs.Metrics.probe m "switch.no_route_drops" (fun () ->
          float_of_int (total_no_route ft));
      Obs.Metrics.probe m "sender.timeouts" (fun () ->
          float_of_int (Workload.sum_senders Tcp.Sender.timeouts flows)));
  let starts = Array.make total Time.zero in
  Array.iteri
    (fun i f ->
      let offset = Engine.Rng.jitter_span rng ~max:config.start_spread in
      starts.(i) <- Time.of_ns offset;
      Tcp.Flow.start_at f starts.(i))
    flows;
  let cap = Time.of_ns config.time_cap in
  Workload.run_slices sim ~cap ~pending:(fun () -> !remaining > 0);
  let slowdowns =
    Array.init total (fun i ->
        let h = hops ~half ~hosts_per_pod ~src:src_a.(i) ~dst:dst_a.(i) in
        let ideal_ns = ideal_fct_ns config ~hops:h ~bytes:bytes_a.(i) in
        let finish = if finished.(i) then done_at.(i) else cap in
        let actual = Time.diff finish starts.(i) in
        (* A censored flow that never even started scores the minimum. *)
        let actual_ns =
          if Time.span_to_int_ns actual < 0 then Time.span_of_int_ns 0
          else actual
        in
        Stats.Fct.slowdown ~ideal_ns ~actual_ns)
  in
  let s = Stats.Fct.summarize slowdowns in
  let incomplete =
    Array.fold_left (fun acc f -> if f then acc else acc + 1) 0 finished
  in
  {
    slowdown_p50 = s.Stats.Fct.p50;
    slowdown_p95 = s.Stats.Fct.p95;
    slowdown_p99 = s.Stats.Fct.p99;
    slowdown_p999 = s.Stats.Fct.p999;
    slowdown_mean = s.Stats.Fct.mean;
    slowdown_max = s.Stats.Fct.max;
    flows_total = total;
    timeouts = Workload.sum_senders Tcp.Sender.timeouts flows;
    incomplete;
    no_route_drops = total_no_route ft;
  }
