(* Rows timed at public function boundaries: each row drives one layer's
   entry points in a tight loop and reports ns/op and minor words/op.
   Parameters (live-set sizes, delays, thresholds, mark share) are the
   values the three sweep workloads run with. *)

type row = { name : string; ns_per_op : float; words_per_op : float }

let now = Unix.gettimeofday

(* [batch ()] performs [ops] operations. Batches repeat for [budget]
   seconds (at least five); ns/op is the median batch, words/op the
   mean over all batches. *)
let measure ?(budget = 0.15) ~name ~ops batch =
  batch ();
  let per_op = ref [] and words = ref 0. and runs = ref 0 in
  let t_end = now () +. budget in
  while !runs < 5 || now () < t_end do
    let w0 = Gc.minor_words () in
    let t0 = now () in
    batch ();
    let dt = now () -. t0 in
    words := !words +. (Gc.minor_words () -. w0);
    per_op := (dt /. float_of_int ops) :: !per_op;
    incr runs
  done;
  {
    name;
    ns_per_op = Stats.Percentile.of_list !per_op 50. *. 1e9;
    words_per_op = !words /. float_of_int (ops * !runs);
  }

let nop () = ()
let time_ns = Engine.Time.of_int_ns

(* --- engine --- *)

(* Delays a dumbbell event draws: 1500 B serialization at 10 Gbps,
   one-way propagation quarter of the 100 us RTT, the 20 us sampler
   tick, and an occasional 10 ms RTO. *)
let wheel_delays = [| 1_200; 1_200; 25_000; 1_200; 20_000; 25_000; 1_200; 10_000_000 |]

(* Live set: engine.heap_high_water of fig_queue at N=100. *)
let wheel_schedule_pop () =
  let q = Engine.Event_queue.create () in
  for i = 0 to 220 do
    ignore (Engine.Event_queue.add q ~time:(time_ns wheel_delays.(i land 7)) nop)
  done;
  let k = ref 0 in
  let ops = 10_000 in
  measure ~name:"engine.wheel.schedule_pop" ~ops (fun () ->
      for _ = 1 to ops do
        ignore (Engine.Event_queue.pop q);
        let t = Engine.Time.to_int_ns (Engine.Event_queue.popped_time q) in
        incr k;
        ignore
          (Engine.Event_queue.add q
             ~time:(time_ns (t + wheel_delays.(!k land 7)))
             nop)
      done)

(* One pending RTO per flow of the k=8 fabric (1040 flows), each ACK
   cancelling and re-arming its flow's timer 10 ms out. *)
let wheel_rearm () =
  let q = Engine.Event_queue.create () in
  let flows = 1040 and rto = 10_000_000 in
  let ids =
    Array.init flows (fun i -> Engine.Event_queue.add q ~time:(time_ns (rto + i)) nop)
  in
  let k = ref 0 in
  let ops = 10_000 in
  measure ~name:"engine.wheel.rearm" ~ops (fun () ->
      for _ = 1 to ops do
        let f = !k mod flows in
        incr k;
        ignore (Engine.Event_queue.cancel q ids.(f));
        ids.(f) <- Engine.Event_queue.add q ~time:(time_ns (rto + (!k land 0xffff))) nop
      done)

(* --- net --- *)

let make_packet st =
  Net.Packet.make st ~src:0 ~dst:1 ~flow:0 ~size:1500 ~ecn:Net.Packet.Ect
    Net.Packet.No_payload

let packet_make_free () =
  let st = Net.Packet.store_of (Engine.Sim.create ()) in
  let ops = 10_000 in
  measure ~name:"net.packet.make_free" ~ops (fun () ->
      for _ = 1 to ops do
        Net.Packet.free st (make_packet st)
      done)

(* Sawtooth: fill to [depth] packets, drain to empty. One op is one
   enqueue plus one dequeue. *)
let queue_sawtooth ~name ~depth q st =
  let cycles = 100 in
  measure ~name ~ops:(cycles * depth) (fun () ->
      for _ = 1 to cycles do
        for _ = 1 to depth do
          ignore (Net.Queue_disc.enqueue q (make_packet st))
        done;
        for _ = 1 to depth do
          Net.Packet.free st (Net.Queue_disc.dequeue_exn q)
        done
      done)

let pkts = Dctcp.Marking_policies.bytes_of_packets

(* fig_queue's bottleneck: solo buffer, DT marking at (30, 50) packets. *)
let queue_disc_static () =
  let sim = Engine.Sim.create () in
  let q =
    Net.Queue_disc.create sim
      ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:(pkts 250))
      ~marking:
        (Dctcp.Marking_policies.double_threshold ~k1_bytes:(pkts 30)
           ~k2_bytes:(pkts 50) ())
      ()
  in
  queue_sawtooth ~name:"net.queue_disc.static" ~depth:60 q
    (Net.Packet.store_of sim)

(* fig_buffer at one BDP, alpha 1: DT pool with scaled DT marking at
   (0.2, 0.3) of the moving limit. The sawtooth stays under the limit. *)
let fig_buffer_pool () =
  Net.Buffer_mgr.create_pool ~pool_bytes:Exp.Registry.bdp_bytes ~alpha:1.0

let queue_disc_pool () =
  let sim = Engine.Sim.create () in
  let q =
    Net.Queue_disc.create sim
      ~buffer:(Net.Buffer_mgr.attach (fig_buffer_pool ()))
      ~marking:
        (Dctcp.Marking_policies.double_threshold_scaled ~k1_frac:0.2
           ~k2_frac:0.3 ())
      ()
  in
  queue_sawtooth ~name:"net.queue_disc.pool" ~depth:30 q
    (Net.Packet.store_of sim)

let buffer_mgr_admit_release () =
  let port = Net.Buffer_mgr.attach (fig_buffer_pool ()) in
  for _ = 1 to 20 do
    ignore (Net.Buffer_mgr.admit port 1500)
  done;
  let ops = 10_000 in
  measure ~name:"net.buffer_mgr.admit_release" ~ops (fun () ->
      for _ = 1 to ops do
        if Net.Buffer_mgr.admit port 1500 then Net.Buffer_mgr.release port 1500
      done)

(* k=8: every edge and aggregation switch holds a 4-way uplink group;
   flows of the 128-host fabric spread over them. *)
let ecmp_select () =
  let rng = Engine.Rng.create ~seed:1L in
  let groups =
    Array.init 64 (fun _ ->
        Net.Ecmp.make_group ~salt:(Engine.Rng.int64 rng) ~ports:[| 4; 5; 6; 7 |])
  in
  let acc = ref 0 and k = ref 0 in
  let ops = 10_000 in
  measure ~name:"net.ecmp.select" ~ops (fun () ->
      for _ = 1 to ops do
        incr k;
        let i = !k in
        acc :=
          !acc
          + Net.Ecmp.select groups.(i land 63) ~src:(i land 127)
              ~dst:((i * 7) land 127) ~flow:(i mod 1040)
      done;
      ignore (Sys.opaque_identity !acc))

let topology_fat_tree_k8 () =
  measure ~budget:0.3 ~name:"net.topology.fat_tree_k8_build" ~ops:1 (fun () ->
      let sim = Engine.Sim.create () in
      ignore
        (Net.Topology.fat_tree sim ~k:8
           ~marking:(fun () ->
             Dctcp.Marking_policies.single_threshold ~k_bytes:32_000)
           ()))

let topology_dumbbell_n100 () =
  measure ~budget:0.3 ~name:"net.topology.dumbbell_n100_build" ~ops:1 (fun () ->
      let sim = Engine.Sim.create () in
      ignore
        (Net.Topology.dumbbell sim ~n_senders:100 ~bottleneck_rate_bps:10e9
           ~rtt:(Engine.Time.span_of_us 100.) ~buffer_bytes:(pkts 250)
           ~marking:
             (Dctcp.Marking_policies.double_threshold ~k1_bytes:(pkts 30)
                ~k2_bytes:(pkts 50) ())
           ()))

(* --- dctcp --- *)

let marking ~name policy =
  let depth = 60 and cycles = 100 in
  measure ~name ~ops:(cycles * depth) (fun () ->
      let marks = ref 0 in
      for _ = 1 to cycles do
        for p = 1 to depth do
          if policy.Net.Marking.on_enqueue ~bytes:(pkts p) ~packets:p then
            incr marks
        done;
        for p = depth - 1 downto 0 do
          policy.Net.Marking.on_dequeue ~bytes:(pkts p) ~packets:p
        done
      done;
      ignore (Sys.opaque_identity !marks))

let marking_single () =
  marking ~name:"dctcp.marking.single"
    (Dctcp.Marking_policies.single_threshold ~k_bytes:(pkts 40))

let marking_double () =
  marking ~name:"dctcp.marking.double"
    (Dctcp.Marking_policies.double_threshold ~k1_bytes:(pkts 30)
       ~k2_bytes:(pkts 50) ())

(* dctcp.mark_share of queue_trace at the default seed: the ECE share
   for workloads whose manifests count no marks. *)
let queue_trace_mark_share = 0.51

(* A stub flow: window state in a float array (no boxing), a clock
   advancing one 10 Gbps segment time per ACK, and ECE on a
   [mark_share] of ACKs spread evenly. *)
let cc_on_ack ~mark_share () =
  let st = [| 10.; 1e9 |] and clock = ref 0 in
  let api =
    {
      Tcp.Cc.now = (fun () -> time_ns !clock);
      flow = 0;
      tracer = Obs.Trace.null;
      get_cwnd = (fun () -> st.(0));
      set_cwnd = (fun c -> st.(0) <- Float.max 1. c);
      get_ssthresh = (fun () -> st.(1));
      set_ssthresh = (fun s -> st.(1) <- s);
    }
  in
  let cc = Dctcp.Dctcp_cc.cc () api in
  let per_mille = int_of_float (mark_share *. 1000.) in
  let una = ref 0 in
  let ops = 10_000 in
  measure ~name:"dctcp.cc.on_ack" ~ops (fun () ->
      for _ = 1 to ops do
        incr una;
        clock := !clock + 1_200;
        let ece = !una * per_mille mod 1000 < per_mille in
        cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece ~snd_una:!una
          ~snd_nxt:(!una + int_of_float st.(0))
      done)

(* --- tcp --- *)

(* One DCTCP flow over a fresh 10 Gbps dumbbell, run to completion:
   sender, receiver, ports and engine per delivered segment, topology
   set-up amortised over the transfer. *)
let flow_transfer () =
  let segments = 2000 in
  measure ~budget:0.3 ~name:"tcp.flow.transfer_per_segment" ~ops:segments
    (fun () ->
      let sim = Engine.Sim.create () in
      let d =
        Net.Topology.dumbbell sim ~n_senders:1 ~bottleneck_rate_bps:10e9
          ~access_rate_bps:20e9 ~rtt:(Engine.Time.span_of_us 100.) ~buffer_bytes:(pkts 250)
          ~marking:(Dctcp.Marking_policies.single_threshold ~k_bytes:(pkts 40))
          ()
      in
      let flow =
        Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
          ~dst:d.Net.Topology.receiver ~flow:0 ~cc:(Dctcp.Dctcp_cc.cc ())
          ~limit_segments:segments ()
      in
      Tcp.Flow.start flow;
      Engine.Sim.run ~until:(Engine.Time.of_ms 100.) sim;
      if
        (not (Tcp.Flow.completed flow))
        || Tcp.Sender.timeouts (Tcp.Flow.sender flow) > 0
      then failwith "tcp.flow.transfer_per_segment: transfer stalled")

(* --- obs --- *)

let emit_loop ~name tr =
  let ops = 10_000 in
  measure ~name ~ops (fun () ->
      for i = 1 to ops do
        if Obs.Trace.enabled tr Obs.Trace.C_enqueue then
          Obs.Trace.emit tr
            {
              Obs.Trace.time = time_ns i;
              component = "sw0->host100";
              event = Obs.Trace.Enqueue { flow = i land 127; occ_bytes = i; occ_pkts = i };
            }
      done)

let emit_null () = emit_loop ~name:"obs.trace.emit_null" Obs.Trace.null

let emit_ring () =
  emit_loop ~name:"obs.trace.emit_ring"
    (Obs.Trace.create (Obs.Trace.Ring (Obs.Trace.ring ~capacity:65536)))

(* The analyzer's input stream of fig_queue's DT-DCTCP N=100 point,
   captured from a 5 ms + 20 ms run of that spec, replayed into a fresh
   analyzer per batch. *)
let analyze_per_record ~seed () =
  let spec =
    List.nth
      (Exp.Registry.fig_queue_specs ~warmup:(Engine.Time.span_of_ms 5.)
         ~measure:(Engine.Time.span_of_ms 20.) ())
      3
    |> Exp.Spec.with_seed seed
  in
  let config =
    match Exp.Runner.analysis_config spec with
    | Some c -> c
    | None -> failwith "fig_queue spec without analysis config"
  in
  let captured = ref [] in
  let tracer =
    Obs.Trace.create ~classes:Obs.Analyze.required_classes
      (Obs.Trace.Fn (fun r -> captured := r :: !captured))
  in
  ignore (Exp.Runner.run_one ~tracer spec);
  let records = Array.of_list (List.rev !captured) in
  captured := [];
  measure ~budget:0.3 ~name:"obs.analyze.per_record" ~ops:(Array.length records)
    (fun () ->
      let an = Obs.Analyze.create config in
      Array.iter (Obs.Analyze.feed an) records;
      Obs.Analyze.finalize an)

let all ~mark_share ~seed =
  [
    wheel_schedule_pop;
    wheel_rearm;
    packet_make_free;
    queue_disc_static;
    queue_disc_pool;
    buffer_mgr_admit_release;
    ecmp_select;
    marking_single;
    marking_double;
    cc_on_ack ~mark_share;
    flow_transfer;
    emit_null;
    emit_ring;
    analyze_per_record ~seed;
    topology_fat_tree_k8;
    topology_dumbbell_n100;
  ]
  |> List.map (fun row -> row ())
