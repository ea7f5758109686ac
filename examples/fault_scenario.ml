(* Fault injection walkthrough: run the same DT-DCTCP dumbbell three
   times — fault-free, through a 20 ms bottleneck outage, and behind a
   mark-dropping ("non-ECN") switch — and print how the queue statistics
   move. Everything is seeded, so every run of this example prints the
   same numbers.

   Run with: dune exec examples/fault_scenario.exe *)

module Sim = Engine.Sim
module Time = Engine.Time
module Plan = Fault.Plan
module D = Workloads.Dumbbell

let config =
  D.default_config
    (D.Longlived
       {
         D.longlived with
         n_flows = 20;
         warmup = Time.span_of_ms 50.;
         measure = Time.span_of_ms 150.;
       })

let run label ?faults () =
  let proto = Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 () in
  match D.run { Workloads.Workload.bare with faults } proto config with
  | D.Queue r ->
      Printf.printf
        "%-28s mean queue %5.1f pkts  stddev %5.2f  util %.3f  timeouts %d\n"
        label r.D.mean_queue_pkts r.D.std_queue_pkts r.D.utilization
        r.D.timeouts
  | D.Fct _ | D.Shares _ -> invalid_arg "not a long-lived run"

let () =
  print_endline
    "Fault injection: 20 DT-DCTCP flows, 10 Gbps dumbbell, 100 us RTT";

  (* Baseline: the ideal fabric every figure in the paper assumes. *)
  run "fault-free" ();

  (* A 20 ms outage in the middle of the measurement window. The link
     pauses (packets queue, they are not lost); senders discover the
     outage through RTO, back off exponentially, and re-converge after
     the link returns. *)
  run "20 ms bottleneck outage"
    ~faults:
      {
        Plan.none with
        flaps =
          [
            {
              Plan.down_at = Time.span_of_ms 100.;
              up_at = Time.span_of_ms 120.;
            };
          ];
      }
    ();

  (* A switch that loses half its CE marks: the queue runs higher
     because half the congestion signal never reaches the senders. *)
  run "50% of ECN marks dropped"
    ~faults:{ Plan.none with suppression = Plan.Suppress_prob 0.5 }
    ();

  (* Plans are plain data with a strict JSON round-trip, so any faulted
     scenario can be stored in an Exp.Spec (key "faults") and re-run
     bit-for-bit from its manifest. *)
  let plan = { Plan.none with loss_rate = 0.01 } in
  Printf.printf "\na plan as JSON: %s\n" (Plan.to_string plan);
  print_endline
    "Same registry machinery as the paper sweeps: try\n\
    \  dune exec bin/dtsim.exe -- sweep --name robust_loss -j 4"
