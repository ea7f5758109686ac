(* Quickstart: build the paper's dumbbell by hand, run DCTCP and DT-DCTCP
   over it, and print the queue statistics the whole paper is about.

   Run with: dune exec examples/quickstart.exe *)

module Sim = Engine.Sim
module Time = Engine.Time

let run_protocol (proto : Dctcp.Protocol.t) =
  (* A fresh simulator per run keeps experiments independent and
     reproducible. *)
  let sim = Sim.create ~seed:7L () in

  (* 10 senders -> one 10 Gbps bottleneck -> one receiver; 100 us RTT.
     The marking policy (single vs double threshold) is the only thing
     that differs between the two protocols. *)
  let net =
    Net.Topology.dumbbell sim ~n_senders:10 ~bottleneck_rate_bps:10e9
      ~rtt:(Time.span_of_us 100.) ~buffer_bytes:(1000 * 1500)
      ~marking:(proto.Dctcp.Protocol.marking ())
      ()
  in

  (* One long-lived flow per sender, all using the protocol's congestion
     control. *)
  let flows =
    Array.mapi
      (fun i src ->
        Tcp.Flow.create sim ~src ~dst:net.Net.Topology.receiver ~flow:i
          ~cc:proto.Dctcp.Protocol.cc ())
      net.Net.Topology.senders
  in
  Array.iteri
    (fun i f -> Tcp.Flow.start_at f (Time.of_us (float_of_int i *. 10.)))
    flows;

  (* Warm up 50 ms, then measure the bottleneck queue for 100 ms. *)
  let bottleneck = Net.Port.queue net.Net.Topology.bottleneck in
  Sim.run ~until:(Time.of_ms 50.) sim;
  Net.Queue_disc.reset_stats bottleneck;
  Net.Port.reset_counters net.Net.Topology.bottleneck;
  Sim.run ~until:(Time.of_ms 150.) sim;

  let throughput =
    float_of_int (Net.Port.bytes_sent net.Net.Topology.bottleneck * 8) /. 0.1
  in
  Printf.printf "%-10s mean queue %5.1f pkts  stddev %5.2f  throughput %.2f Gbps  alpha %.3f\n"
    proto.Dctcp.Protocol.name
    (Net.Queue_disc.mean_occupancy_packets bottleneck)
    (Net.Queue_disc.stddev_occupancy_packets bottleneck)
    (throughput /. 1e9)
    (match Tcp.Flow.alpha flows.(0) with [| a |] -> a | _ -> nan)

let () =
  print_endline "DT-DCTCP quickstart: 10 flows, 10 Gbps dumbbell, 100 us RTT";
  run_protocol (Dctcp.Protocol.dctcp_pkts ~k:40 ());
  run_protocol (Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 ());
  print_endline
    "Both hold the queue near the thresholds at full throughput; DT-DCTCP\n\
     does it with a smaller standard deviation (the paper's core claim)."
