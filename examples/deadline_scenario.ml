(* Deadline scenario: the D2TCP extension in action — the same fan-in, once
   with plain DCTCP senders and once with deadline-aware backoff, scored by
   the fraction of per-flow deadlines met.

   Run with: dune exec examples/deadline_scenario.exe *)

module Time = Engine.Time
module F = Workloads.Fanin

let config n ~aware =
  {
    (F.default_config F.Deadline) with
    F.n_flows = n;
    repeats = 10;
    rate_bps = 10e9;
    buffer_bytes = 512 * 1024;
    bytes = F.Per_flow (300 * 1024);
    min_rto = Time.span_of_ms 10.;
    deadline =
      Some { base = Time.span_of_ms 2.; spread = Time.span_of_ms 4.; aware };
  }

let proto = Dctcp.Protocol.dctcp ~k_bytes:(40 * 1500) ()

let met n ~aware =
  match F.run Workloads.Workload.bare proto (config n ~aware) with
  | F.Deadlines_met r -> 100. *. r.F.met_fraction
  | F.Goodput _ | F.Completion_time _ -> assert false

let () =
  print_endline
    "Deadline fan-in: n workers send 300 KB each; deadlines uniform in\n\
     [2 ms, 6 ms]; 10 Gbps star, K = 40 packets.";
  Printf.printf "\n  %5s  %12s  %12s\n" "flows" "DCTCP met" "D2TCP met";
  List.iter
    (fun n ->
      Printf.printf "  %5d  %11.0f%%  %11.0f%%\n%!" n (met n ~aware:false)
        (met n ~aware:true))
    [ 8; 10; 12; 16 ];
  print_endline
    "\nD2TCP gates DCTCP's backoff by deadline imminence (p = alpha^d):\n\
     far-deadline flows yield bandwidth, near-deadline flows keep it."
