(* Tests for the TCP substrate: RTO estimation, congestion-control
   baselines, the receiver's per-packet echo, and the full sender state
   machine driven end-to-end over a simulated dumbbell. *)

module Sim = Engine.Sim
module Time = Engine.Time

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

(* --- Rtt_estimator --- *)

let mk_est () =
  Tcp.Rtt_estimator.create ~min_rto:(Time.span_of_ms 1.)
    ~max_rto:(Time.span_of_sec 10.) ~initial_rto:(Time.span_of_sec 1.) ()

let test_rtt_initial () =
  let e = mk_est () in
  checkb "no srtt" true (Tcp.Rtt_estimator.srtt e = None);
  Alcotest.check Alcotest.int "initial rto" 1_000_000_000
    (Time.span_to_int_ns (Tcp.Rtt_estimator.rto e))

let test_rtt_first_sample () =
  let e = mk_est () in
  Tcp.Rtt_estimator.sample e (Time.span_of_ms 100.);
  (* srtt = 100ms, rttvar = 50ms, rto = 100 + 4*50 = 300ms *)
  checkf ~eps:1e-6 "rto after first sample" 0.3
    (Time.span_to_sec (Tcp.Rtt_estimator.rto e));
  (match Tcp.Rtt_estimator.srtt e with
  | Some s -> checkf ~eps:1e-6 "srtt" 0.1 (Time.span_to_sec s)
  | None -> Alcotest.fail "expected srtt")

let test_rtt_converges () =
  let e = mk_est () in
  for _ = 1 to 200 do
    Tcp.Rtt_estimator.sample e (Time.span_of_ms 10.)
  done;
  (* constant samples: rttvar -> 0, rto -> min clamp or srtt *)
  (match Tcp.Rtt_estimator.srtt e with
  | Some s -> checkf ~eps:1e-4 "srtt converges" 0.01 (Time.span_to_sec s)
  | None -> Alcotest.fail "expected srtt");
  checkb "rto near srtt" true
    (Time.span_to_sec (Tcp.Rtt_estimator.rto e) < 0.02)

let test_rtt_min_clamp () =
  let e =
    Tcp.Rtt_estimator.create ~min_rto:(Time.span_of_ms 200.)
      ~max_rto:(Time.span_of_sec 60.) ~initial_rto:(Time.span_of_sec 1.) ()
  in
  for _ = 1 to 50 do
    Tcp.Rtt_estimator.sample e (Time.span_of_us 100.)
  done;
  checkf ~eps:1e-9 "clamped at min" 0.2
    (Time.span_to_sec (Tcp.Rtt_estimator.rto e))

let test_rtt_backoff () =
  let e = mk_est () in
  Tcp.Rtt_estimator.sample e (Time.span_of_ms 100.);
  let r0 = Time.span_to_sec (Tcp.Rtt_estimator.rto e) in
  Tcp.Rtt_estimator.backoff e;
  checkf ~eps:1e-9 "doubled" (2. *. r0)
    (Time.span_to_sec (Tcp.Rtt_estimator.rto e));
  for _ = 1 to 20 do
    Tcp.Rtt_estimator.backoff e
  done;
  checkf ~eps:1e-9 "capped at max" 10.
    (Time.span_to_sec (Tcp.Rtt_estimator.rto e))

let test_rtt_validation () =
  checkb "min>max raises" true
    (match
       Tcp.Rtt_estimator.create ~min_rto:(Time.span_of_sec 2.)
         ~max_rto:(Time.span_of_sec 1.) ~initial_rto:(Time.span_of_sec 1.) ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* One RTT sample per timed segment: the estimator's update and the RTO
   read allocate nothing. The samples cross both clamps (1 ms and 10 s)
   and the 1 us rttvar floor. *)
let test_rtt_zero_alloc () =
  let e = mk_est () in
  let samples =
    Array.map Time.span_of_int_ns
      [| 100_000; 2_000_000; 250_000; 30_000_000_000; 5_000_000; 5_000_000 |]
  in
  Tcp.Rtt_estimator.sample e samples.(0);
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Tcp.Rtt_estimator.sample e samples.(i mod Array.length samples);
    sum := !sum + Time.span_to_int_ns (Tcp.Rtt_estimator.rto e)
  done;
  let words = Gc.minor_words () -. before in
  checkb "RTOs were read" true (!sum > 0);
  checkf "words for 10k samples" 0. words

(* --- Cc baselines via a fake flow api --- *)

type fake_flow = { mutable cwnd : float; mutable ssthresh : float }

let fake_api () =
  let f = { cwnd = 2.; ssthresh = 1e9 } in
  let api =
    {
      Tcp.Cc.now = (fun () -> Time.zero);
      flow = 0;
      tracer = Obs.Trace.null;
      get_cwnd = (fun () -> f.cwnd);
      set_cwnd = (fun c -> f.cwnd <- Float.max 1. c);
      get_ssthresh = (fun () -> f.ssthresh);
      set_ssthresh = (fun s -> f.ssthresh <- s);
    }
  in
  (f, api)

let test_reno_slow_start () =
  let f, api = fake_api () in
  let cc = Tcp.Cc.reno api in
  cc.Tcp.Cc.on_ack ~newly_acked:2 ~ece:false ~snd_una:2 ~snd_nxt:4;
  checkf "cwnd grows by acked in slow start" 4. f.cwnd

let test_reno_congestion_avoidance () =
  let f, api = fake_api () in
  let cc = Tcp.Cc.reno api in
  f.cwnd <- 10.;
  f.ssthresh <- 5.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:false ~snd_una:1 ~snd_nxt:11;
  checkf ~eps:1e-9 "cwnd += 1/cwnd" 10.1 f.cwnd

let test_reno_ignores_ece () =
  let f, api = fake_api () in
  let cc = Tcp.Cc.reno api in
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:1 ~snd_nxt:3;
  checkf "reno grows despite ece" 3. f.cwnd

let test_reno_fast_retransmit () =
  let f, api = fake_api () in
  let cc = Tcp.Cc.reno api in
  f.cwnd <- 16.;
  cc.Tcp.Cc.on_fast_retransmit ();
  checkf "halved" 8. f.cwnd;
  checkf "ssthresh" 8. f.ssthresh

let test_reno_timeout () =
  let f, api = fake_api () in
  let cc = Tcp.Cc.reno api in
  f.cwnd <- 16.;
  cc.Tcp.Cc.on_timeout ();
  checkf "collapsed" 1. f.cwnd;
  checkf "ssthresh half" 8. f.ssthresh;
  checkb "no alpha" true (cc.Tcp.Cc.alpha = [||])

let test_ecn_reno_halves_once_per_window () =
  let f, api = fake_api () in
  let cc = Tcp.Cc.ecn_reno api in
  f.cwnd <- 16.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:5 ~snd_nxt:20;
  checkf "halved" 8. f.cwnd;
  (* further ECE inside the same window is ignored *)
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:10 ~snd_nxt:22;
  checkf "not halved again" 8. f.cwnd;
  (* past the recorded snd_nxt the next ECE bites again *)
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:21 ~snd_nxt:30;
  checkf "halved in next window" 4. f.cwnd

(* --- Segment --- *)

(* The decoded header of each segment kind: a data segment's sequence
   number, an ACK's number, ECN-Echo flag and SACK blocks, and no segment
   at all on a bare packet. *)
let test_segment_describe () =
  let st = Net.Packet.store_of (Sim.create ()) in
  let view = Tcp.Segment.view st in
  checkb "data seq" true
    (match
       view
         (Tcp.Segment.data st ~src:0 ~dst:1 ~flow:0 ~size:1500
            ~ecn:Net.Packet.Ect ~seq:5)
     with
    | Tcp.Segment.Data { seq = 5 } -> true
    | _ -> false);
  checkb "ack with ece" true
    (match
       view
         (Tcp.Segment.ack st ~src:1 ~dst:0 ~flow:0 ~size:40 ~ack:3 ~ece:true
            ~sack:[])
     with
    | Tcp.Segment.Ack { ack = 3; ece = true; sack = [] } -> true
    | _ -> false);
  checkb "ack with sack blocks" true
    (match
       view
         (Tcp.Segment.ack st ~src:1 ~dst:0 ~flow:0 ~size:40 ~ack:7 ~ece:false
            ~sack:[ (9, 12); (15, 16) ])
     with
    | Tcp.Segment.Ack { ack = 7; ece = false; sack = [ (9, 12); (15, 16) ] } ->
        true
    | _ -> false);
  checkb "other" true
    (match
       view
         (Net.Packet.make st ~src:0 ~dst:1 ~flow:0 ~size:1500
            ~ecn:Net.Packet.Ect Net.Packet.No_payload)
     with
    | Tcp.Segment.Other -> true
    | _ -> false)

(* --- End-to-end transfers --- *)

let fast_config =
  {
    Tcp.Sender.default_config with
    min_rto = Time.span_of_ms 10.;
    initial_rto = Time.span_of_ms 50.;
  }

let mk_net ?(n = 1) ?(buffer = 100 * 1500) ?(rate = 1e9) ?marking () =
  let sim = Sim.create ~seed:5L () in
  let marking = match marking with Some m -> m | None -> Net.Marking.none () in
  let d =
    Net.Topology.dumbbell sim ~n_senders:n ~bottleneck_rate_bps:rate
      ~rtt:(Time.span_of_us 100.) ~buffer_bytes:buffer ~marking ()
  in
  (sim, d)

let test_transfer_completes () =
  let sim, d = mk_net () in
  let done_at = ref None in
  let flow =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
      ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno ~config:fast_config
      ~limit_segments:200
      ~on_complete:(fun f -> done_at := Tcp.Flow.completion_time f)
      ()
  in
  Tcp.Flow.start flow;
  Sim.run ~until:(Time.of_sec 2.) sim;
  checkb "completed" true (Tcp.Flow.completed flow);
  checki "all delivered" 200 (Tcp.Flow.segments_delivered flow);
  (match !done_at with
  | Some t ->
      (* 200 segments of 1500B at 1 Gbps = 2.4 ms serialization floor. *)
      checkb "took at least the line-rate floor" true (Time.to_sec t > 2.4e-3);
      checkb "reasonably fast" true (Time.to_sec t < 0.1)
  | None -> Alcotest.fail "expected completion time")

let test_transfer_no_losses_on_big_buffer () =
  let sim, d = mk_net () in
  let flow =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
      ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno ~config:fast_config
      ~limit_segments:300 ()
  in
  Tcp.Flow.start flow;
  Sim.run ~until:(Time.of_sec 2.) sim;
  checkb "completed" true (Tcp.Flow.completed flow);
  checki "no timeouts" 0 (Tcp.Sender.timeouts (Tcp.Flow.sender flow));
  checki "no retransmissions" 0
    (Tcp.Sender.retransmissions (Tcp.Flow.sender flow))

let test_slow_start_doubling () =
  (* With a huge pipe and no losses, cwnd should roughly double per RTT
     from the initial window while in slow start. *)
  let sim, d = mk_net ~rate:10e9 () in
  let flow =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
      ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno ~config:fast_config
      ()
  in
  Tcp.Flow.start flow;
  (* Base RTT ~100us: after ~5 RTTs cwnd should be >= 2^5 = 32 *)
  Sim.run ~until:(Time.of_us 550.) sim;
  checkb "cwnd grew exponentially" true (Tcp.Sender.cwnd (Tcp.Flow.sender flow) >= 32.)

let test_rtt_measured_close_to_real () =
  let sim, d = mk_net () in
  let flow =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
      ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno ~config:fast_config
      ~limit_segments:50 ()
  in
  Tcp.Flow.start flow;
  Sim.run ~until:(Time.of_sec 1.) sim;
  match Tcp.Sender.srtt (Tcp.Flow.sender flow) with
  | Some s ->
      let srtt = Time.span_to_sec s in
      (* base RTT 100us prop + serialization; queueing adds on top *)
      checkb "srtt plausible" true (srtt > 100e-6 && srtt < 3e-3)
  | None -> Alcotest.fail "expected an RTT sample"

let test_fast_retransmit_recovers () =
  (* A tiny bottleneck buffer forces burst losses; the transfer must still
     complete, using fast retransmit (dupacks) rather than only timeouts. *)
  let sim, d = mk_net ~buffer:(8 * 1500) () in
  let flow =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
      ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno ~config:fast_config
      ~limit_segments:2000 ()
  in
  Tcp.Flow.start flow;
  Sim.run ~until:(Time.of_sec 10.) sim;
  checkb "completed despite losses" true (Tcp.Flow.completed flow);
  checkb "losses actually happened" true
    (Tcp.Sender.retransmissions (Tcp.Flow.sender flow) > 0);
  checkb "fast retransmit used" true
    (Tcp.Sender.fast_retransmits (Tcp.Flow.sender flow) > 0)

let test_goodput_at_line_rate () =
  let sim, d = mk_net () in
  let flow =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
      ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno ~config:fast_config
      ()
  in
  Tcp.Flow.start flow;
  let t_end = Time.of_ms 300. in
  Sim.run ~until:t_end sim;
  let goodput =
    Stats.Fairness.goodput_bps
      ~segments:(Tcp.Flow.segments_delivered flow)
      ~segment_bytes:fast_config.Tcp.Sender.segment_bytes
      ~window_s:(Time.to_sec t_end)
  in
  checkb
    (Printf.sprintf "near line rate (%.0f Mbps)" (goodput /. 1e6))
    true (goodput > 0.9e9)

let test_two_flows_share_fairly () =
  let sim, d = mk_net ~n:2 () in
  let mk i =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(i)
      ~dst:d.Net.Topology.receiver ~flow:i ~cc:Tcp.Cc.reno ~config:fast_config
      ()
  in
  let f0 = mk 0 and f1 = mk 1 in
  Tcp.Flow.start f0;
  Tcp.Flow.start f1;
  Sim.run ~until:(Time.of_ms 400.) sim;
  let d0 = float_of_int (Tcp.Flow.segments_delivered f0) in
  let d1 = float_of_int (Tcp.Flow.segments_delivered f1) in
  let ratio = Float.min d0 d1 /. Float.max d0 d1 in
  checkb "within 2x of each other" true (ratio > 0.5);
  checkb
    (Printf.sprintf "combined near line rate (%.0f Mbps)"
       ((d0 +. d1) *. 1500. *. 8. /. 0.4 /. 1e6))
    true
    ((d0 +. d1) *. 1500. *. 8. /. 0.4 > 0.9e9)

let test_rto_recovers_without_fast_retransmit () =
  (* With the dupack threshold out of reach, the RTO path is the only loss
     recovery; it must still push a lossy transfer through. *)
  let sim, d = mk_net () in
  let config = { fast_config with Tcp.Sender.dupack_threshold = 1_000_000 } in
  let flow =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
      ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno ~config
      ~limit_segments:1500 ()
  in
  Tcp.Flow.start flow;
  Sim.run ~until:(Time.of_sec 30.) sim;
  checkb "completed" true (Tcp.Flow.completed flow);
  checkb "timeouts happened" true
    (Tcp.Sender.timeouts (Tcp.Flow.sender flow) > 0);
  checki "fast retransmit never triggered" 0
    (Tcp.Sender.fast_retransmits (Tcp.Flow.sender flow))

let test_receiver_ooo_buffering () =
  let sim = Sim.create () in
  let h = Net.Host.create sim ~id:1 in
  (* A NIC so the receiver can emit ACKs; deliver them nowhere. *)
  let q = Net.Queue_disc.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  Net.Host.attach_nic h
    (Net.Port.create sim ~rate_bps:1e9 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver:ignore);
  let r = Tcp.Receiver.create sim ~host:h ~flow:0 ~peer:0 () in
  let push seq =
    Net.Host.receive h
      (Tcp.Segment.data (Net.Packet.store_of sim) ~src:0 ~dst:1 ~flow:0
         ~size:1500 ~ecn:Net.Packet.Ect ~seq)
  in
  push 0;
  checki "in order" 1 (Tcp.Receiver.segments_delivered r);
  push 2;
  push 3;
  checki "held back" 1 (Tcp.Receiver.segments_delivered r);
  push 1;
  checki "drained" 4 (Tcp.Receiver.segments_delivered r);
  push 1;
  checki "duplicate ignored" 4 (Tcp.Receiver.segments_delivered r)

let test_receiver_echo_per_packet () =
  let sim = Sim.create () in
  let h = Net.Host.create sim ~id:1 in
  let acks = ref [] in
  let q = Net.Queue_disc.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  Net.Host.attach_nic h
    (Net.Port.create sim ~rate_bps:1e9 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver:(fun p ->
         let st = Net.Packet.store_of sim in
         (match Tcp.Segment.view st p with
         | Tcp.Segment.Ack { ack; ece; sack = _ } ->
             acks := (ack, ece) :: !acks
         | _ -> ());
         Net.Packet.free st p));
  let _r = Tcp.Receiver.create sim ~host:h ~flow:0 ~peer:0 () in
  let push seq ecn =
    Net.Host.receive h
      (Tcp.Segment.data (Net.Packet.store_of sim) ~src:0 ~dst:1 ~flow:0
         ~size:1500 ~ecn ~seq)
  in
  push 0 Net.Packet.Ect;
  push 1 Net.Packet.Ce;
  push 2 Net.Packet.Ect;
  Sim.run sim;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "one ack per packet, ece mirrors CE"
    [ (1, false); (2, true); (3, false) ]
    (List.rev !acks)

(* --- SACK --- *)

let test_receiver_sack_blocks () =
  let sim = Sim.create () in
  let h = Net.Host.create sim ~id:1 in
  let last_sack = ref [] in
  let q = Net.Queue_disc.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  Net.Host.attach_nic h
    (Net.Port.create sim ~rate_bps:1e9 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver:(fun p ->
         let st = Net.Packet.store_of sim in
         (match Tcp.Segment.view st p with
         | Tcp.Segment.Ack { sack; _ } -> last_sack := sack
         | _ -> ());
         Net.Packet.free st p));
  let _r = Tcp.Receiver.create sim ~host:h ~flow:0 ~peer:0 ~sack:true () in
  let push seq =
    Net.Host.receive h
      (Tcp.Segment.data (Net.Packet.store_of sim) ~src:0 ~dst:1 ~flow:0
         ~size:1500 ~ecn:Net.Packet.Ect ~seq);
    Sim.run sim
  in
  push 0;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "no blocks in order" [] !last_sack;
  push 2;
  push 3;
  push 5;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "two merged blocks"
    [ (2, 4); (5, 6) ]
    !last_sack;
  (* filling the hole drains the buffer; blocks disappear *)
  push 1;
  push 4;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "drained" [] !last_sack

let test_receiver_sack_block_limit () =
  let sim = Sim.create () in
  let h = Net.Host.create sim ~id:1 in
  let last_sack = ref [] in
  let q = Net.Queue_disc.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  Net.Host.attach_nic h
    (Net.Port.create sim ~rate_bps:1e9 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver:(fun p ->
         let st = Net.Packet.store_of sim in
         (match Tcp.Segment.view st p with
         | Tcp.Segment.Ack { sack; _ } -> last_sack := sack
         | _ -> ());
         Net.Packet.free st p));
  let _r = Tcp.Receiver.create sim ~host:h ~flow:0 ~peer:0 ~sack:true () in
  List.iter
    (fun seq ->
      Net.Host.receive h
        (Tcp.Segment.data (Net.Packet.store_of sim) ~src:0 ~dst:1 ~flow:0
           ~size:1500 ~ecn:Net.Packet.Ect ~seq))
    [ 2; 4; 6; 8; 10 ];
  Sim.run sim;
  checki "at most three blocks" 3 (List.length !last_sack)

let lossy_transfer ~sack =
  let sim, d = mk_net ~buffer:(20 * 1500) ~n:2 () in
  (* A competing greedy flow creates drops at the shared bottleneck. *)
  let config = { fast_config with Tcp.Sender.sack } in
  let main =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
      ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno ~config
      ~limit_segments:3000 ()
  in
  let cross =
    Tcp.Flow.create sim ~src:d.Net.Topology.senders.(1)
      ~dst:d.Net.Topology.receiver ~flow:1 ~cc:Tcp.Cc.reno ~config ()
  in
  Tcp.Flow.start main;
  Tcp.Flow.start cross;
  (* Run until the main transfer completes so both modes are compared on
     identical delivered work. *)
  let rec advance () =
    if (not (Tcp.Flow.completed main)) && Time.(Sim.now sim < Time.of_sec 30.)
    then begin
      Sim.run ~until:(Time.add (Sim.now sim) (Time.span_of_ms 100.)) sim;
      advance ()
    end
  in
  advance ();
  (* Host 0's NIC carries exactly the main flow's data segments, so the
     overhead beyond the 3000 useful segments is the resend waste. *)
  let sent = Net.Port.packets_sent (Net.Host.nic d.Net.Topology.senders.(0)) in
  ( Tcp.Flow.completed main,
    sent - 3000,
    Tcp.Sender.fast_retransmits (Tcp.Flow.sender main) )

let test_sack_transfer_completes () =
  let completed, overhead, frtx = lossy_transfer ~sack:true in
  checkb "completed" true completed;
  checkb "losses happened" true (overhead > 0);
  checkb "fast retransmit used" true (frtx > 0)

let test_sack_fewer_retransmissions () =
  let _, overhead_sack, _ = lossy_transfer ~sack:true in
  let _, overhead_gbn, _ = lossy_transfer ~sack:false in
  checkb
    (Printf.sprintf "sack resend overhead %d < go-back-N %d" overhead_sack
       overhead_gbn)
    true
    (overhead_sack < overhead_gbn)

let test_sender_validation () =
  let sim, d = mk_net () in
  checkb "zero-segment flow raises" true
    (match
       Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
         ~dst:d.Net.Topology.receiver ~flow:99 ~cc:Tcp.Cc.reno
         ~limit_segments:0 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_flow_determinism () =
  let run () =
    let sim, d = mk_net ~buffer:(8 * 1500) () in
    let flow =
      Tcp.Flow.create sim ~src:d.Net.Topology.senders.(0)
        ~dst:d.Net.Topology.receiver ~flow:0 ~cc:Tcp.Cc.reno
        ~config:fast_config ~limit_segments:1000 ()
    in
    Tcp.Flow.start flow;
    Sim.run ~until:(Time.of_sec 5.) sim;
    ( Option.map Time.to_int_ns (Tcp.Flow.completion_time flow),
      Tcp.Sender.retransmissions (Tcp.Flow.sender flow),
      Sim.events_processed sim )
  in
  checkb "identical runs" true (run () = run ())

(* The sender's window clamps are written as comparisons rather than
   [Float.min]/[Float.max] calls; they must return the very float the
   library forms return, bit for bit, for every [cwnd]/[ssthresh]
   request and every [max_cwnd] in a set of specials (NaNs of both
   signs, signed zeros, infinities, a subnormal, values either side of
   1 and of the cap). *)
let test_window_clamps_exact () =
  let specials =
    [ Float.nan; -.Float.nan; infinity; neg_infinity; 0.; -0.; 1.; -1.; 0.5;
      1.5; 7.25; 1e9; 2e9; 5e-324; max_float; -.max_float ]
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun max_cwnd ->
      let sim = Sim.create () in
      let host = Net.Host.create sim ~id:0 in
      let api = ref None in
      let cc a =
        api := Some a;
        Tcp.Cc.reno a
      in
      ignore
        (Tcp.Sender.create sim ~host ~peer:1 ~flow:0 ~cc
           ~config:{ Tcp.Sender.default_config with max_cwnd }
           ());
      let a = Option.get !api in
      List.iter
        (fun c ->
          let what = Printf.sprintf "(%h, cap %h)" c max_cwnd in
          a.Tcp.Cc.set_cwnd c;
          Alcotest.(check int64) ("cwnd " ^ what)
            (bits (Float.min (Float.max c 1.) max_cwnd))
            (bits (a.Tcp.Cc.get_cwnd ()));
          a.Tcp.Cc.set_ssthresh c;
          Alcotest.(check int64) ("ssthresh " ^ what)
            (bits (Float.max c 1.))
            (bits (a.Tcp.Cc.get_ssthresh ())))
        specials)
    specials

(* The window exchange across [Cc.flow_api], on the closures a sender
   builds. The sender stores the window boxed, as the closures pass it,
   so reading it allocates nothing (a flat float slot boxed 2 words per
   read). Each window decision boxes its new value once, 2 words, even
   when it feeds both setters. *)
let test_window_exchange_words () =
  let sim = Sim.create () in
  let host = Net.Host.create sim ~id:0 in
  let api = ref None in
  let cc a =
    api := Some a;
    Tcp.Cc.reno a
  in
  ignore (Tcp.Sender.create sim ~host ~peer:1 ~flow:0 ~cc ());
  let a = Option.get !api in
  let n = 10_000 in
  let acc = [| 0. |] in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    acc.(0) <- acc.(0) +. a.Tcp.Cc.get_cwnd () +. a.Tcp.Cc.get_ssthresh ()
  done;
  let words = Gc.minor_words () -. before in
  checkb "window read" true (acc.(0) > 0.);
  checkf "words for 10k get_cwnd + get_ssthresh" 0. words;
  let per_call name f =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      (* A constant is a static box: restoring the window is free. *)
      a.Tcp.Cc.set_cwnd 1e6;
      f a
    done;
    let w = (Gc.minor_words () -. before) /. float_of_int n in
    checkb (Printf.sprintf "%s: %.2f words per call <= 2" name w) true (w <= 2.)
  in
  per_call "grow" (fun a -> Tcp.Cc.grow a 1);
  per_call "halve_on_loss" Tcp.Cc.halve_on_loss;
  per_call "collapse_on_timeout" Tcp.Cc.collapse_on_timeout;
  checkf "collapsed" 1. (a.Tcp.Cc.get_cwnd ());
  checkf "ssthresh half the window" 5e5 (a.Tcp.Cc.get_ssthresh ())

(* A flow builds only what it reads: a non-SACK sender has no SACK
   scoreboard or retransmit set, the receiver creates its out-of-order
   table at the first out-of-order segment, and trace component names
   are built without Printf. Averaged over 64 flows, so growth of the
   sim's action table and the hosts' flow tables is amortized. *)
let flow_creation_words cc =
  let sim = Sim.create () in
  let src = Net.Host.create sim ~id:0 and dst = Net.Host.create sim ~id:1 in
  let n = 64 in
  let before = Gc.minor_words () in
  for flow = 0 to n - 1 do
    ignore
      (Tcp.Flow.create sim ~src ~dst ~flow ~cc
         ~config:{ Tcp.Sender.default_config with sack = false }
         ())
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* 195 words for Reno (197 with the window in a float array, 299 with
   the tables built up front and a Printf name); one smallest table back
   (22 words) or a Printf-formatted name (about 40) crosses the
   budget. *)
let test_flow_creation_words () =
  let per_flow = flow_creation_words Tcp.Cc.reno in
  checkb
    (Printf.sprintf "%.1f words per non-SACK Reno flow <= 208" per_flow)
    true (per_flow <= 208.)

(* DCTCP adds its per-flow state and names its cut events' component:
   213 words (219 with an alpha closure, 362 before). *)
let test_dctcp_flow_creation_words () =
  let per_flow = flow_creation_words (Dctcp.Dctcp_cc.cc ()) in
  checkb
    (Printf.sprintf "%.1f words per non-SACK DCTCP flow <= 224" per_flow)
    true (per_flow <= 224.)

let suites =
  [
    ( "tcp.rtt_estimator",
      [
        Alcotest.test_case "initial state" `Quick test_rtt_initial;
        Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
        Alcotest.test_case "convergence" `Quick test_rtt_converges;
        Alcotest.test_case "min clamp" `Quick test_rtt_min_clamp;
        Alcotest.test_case "backoff" `Quick test_rtt_backoff;
        Alcotest.test_case "validation" `Quick test_rtt_validation;
        Alcotest.test_case "sample and rto allocate nothing" `Quick
          test_rtt_zero_alloc;
      ] );
    ( "tcp.cc",
      [
        Alcotest.test_case "reno slow start" `Quick test_reno_slow_start;
        Alcotest.test_case "reno congestion avoidance" `Quick
          test_reno_congestion_avoidance;
        Alcotest.test_case "reno ignores ece" `Quick test_reno_ignores_ece;
        Alcotest.test_case "reno fast retransmit" `Quick
          test_reno_fast_retransmit;
        Alcotest.test_case "reno timeout" `Quick test_reno_timeout;
        Alcotest.test_case "ecn-reno once per window" `Quick
          test_ecn_reno_halves_once_per_window;
      ] );
    ( "tcp.segment",
      [ Alcotest.test_case "describe" `Quick test_segment_describe ] );
    ( "tcp.receiver",
      [
        Alcotest.test_case "out-of-order buffering" `Quick
          test_receiver_ooo_buffering;
        Alcotest.test_case "per-packet echo" `Quick
          test_receiver_echo_per_packet;
      ] );
    ( "tcp.flow",
      [
        Alcotest.test_case "transfer completes" `Quick test_transfer_completes;
        Alcotest.test_case "clean path has no losses" `Quick
          test_transfer_no_losses_on_big_buffer;
        Alcotest.test_case "slow start doubling" `Quick
          test_slow_start_doubling;
        Alcotest.test_case "rtt measurement" `Quick
          test_rtt_measured_close_to_real;
        Alcotest.test_case "fast retransmit recovery" `Quick
          test_fast_retransmit_recovers;
        Alcotest.test_case "line-rate goodput" `Quick test_goodput_at_line_rate;
        Alcotest.test_case "two flows share" `Quick test_two_flows_share_fairly;
        Alcotest.test_case "rto-only recovery" `Quick
          test_rto_recovers_without_fast_retransmit;
        Alcotest.test_case "sack blocks at receiver" `Quick
          test_receiver_sack_blocks;
        Alcotest.test_case "sack block limit" `Quick
          test_receiver_sack_block_limit;
        Alcotest.test_case "sack transfer completes" `Quick
          test_sack_transfer_completes;
        Alcotest.test_case "sack beats go-back-N on retransmissions" `Slow
          test_sack_fewer_retransmissions;
        Alcotest.test_case "validation" `Quick test_sender_validation;
        Alcotest.test_case "window clamps match Float.min/max bit for bit"
          `Quick test_window_clamps_exact;
        Alcotest.test_case "window exchange words" `Quick
          test_window_exchange_words;
        Alcotest.test_case "flow creation words" `Quick
          test_flow_creation_words;
        Alcotest.test_case "DCTCP flow creation words" `Quick
          test_dctcp_flow_creation_words;
        Alcotest.test_case "determinism" `Quick test_flow_determinism;
      ] );
  ]
