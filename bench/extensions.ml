(* Extension benches beyond the reproduced paper: D2TCP (the deadline-aware
   DCTCP derivative the paper's introduction cites) and SACK recovery, both
   on the star fan-in; the queue-buildup mixed-traffic and convergence
   experiments from the original DCTCP paper. Each is an Exp.Claim
   declaration; here are their notes and the convergence plots. *)

let d2tcp =
  Bench_common.note
    "300 KB flows, deadlines uniform 2-6 ms, 10 Gbps star.\n\
     D2TCP's imminence-gated backoff (p = alpha^d) trades bandwidth toward\n\
     near-deadline flows; the gain concentrates in the mid fan-in range\n\
     where windows are still several segments (at high fan-in every window\n\
     is pinned at ~1 segment and no backoff policy can shift bandwidth).\n\
     This implementation omits the original's hardware pacing.\n"

let sack =
  Bench_common.note
    "A negative result worth keeping: the go-back-n and sack rows are\n\
     identical. Incast losses here are whole-window tail losses on 1-2\n\
     segment windows, so the three duplicate ACKs fast retransmit waits for\n\
     never arrive, fast retransmit (where SACK acts) never engages, and\n\
     every recovery is a min-RTO wait. SACK's benefit shows on partial\n\
     window losses instead (see the lossy-transfer tests: ~5x less resend\n\
     overhead than go-back-N).\n"

let queue_buildup =
  Bench_common.note
    "2 background long flows + Poisson 21 KB short flows (5k/s), 10 Gbps.\n\
     Reno's standing queue inflates every short flow's completion by the\n\
     queueing delay (~6x at the median here); the DCTCP family keeps the\n\
     queue at the marking threshold so short flows cut through, and\n\
     DT-DCTCP's lower queue floor shaves latency further - the paper's\n\
     motivation for low, stable queues in one table.\n"

(* Each run's per-flow share over time, and each flow's convergence
   time. *)
let convergence (r : Exp.Claim.report) =
  List.iter
    (fun (run : Exp.Claim.run) ->
      match run.outcome.Exp.Runner.result with
      | Exp.Outcome.Done (Exp.Outcome.Dumbbell (Workloads.Dumbbell.Shares c))
        ->
          let module C = Workloads.Dumbbell in
          Printf.printf "\n%s: per-flow share over time (Mbps)\n"
            run.outcome.Exp.Runner.spec.Exp.Spec.name;
          let series =
            List.init (Array.length c.C.convergence_times_s) (fun i ->
                ( Printf.sprintf "flow %d" i,
                  Array.map (fun w -> w.(i) /. 1e6) c.C.shares ))
          in
          print_string (Stats.Ascii_plot.render ~height:11 ~series ());
          Printf.printf "  convergence times (ms): %s\n"
            (String.concat ", "
               (Array.to_list
                  (Array.map
                     (fun t ->
                       if Float.is_nan t then "-"
                       else Printf.sprintf "%.0f" (t *. 1e3))
                     c.C.convergence_times_s)))
      | _ -> ())
    r.runs;
  Printf.printf
    "\nFlows join every 400 ms then leave in join order; both protocols\n\
     converge each newcomer to its fair share within tens of ms (tens to\n\
     hundreds of RTTs) and keep near-1 Jain fairness while all five are\n\
     active.\n"
