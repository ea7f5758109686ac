(* Robustness under injected faults: the paper's claims are all made on a
   clean fabric, so the robustness claim stresses them — random loss, a
   bottleneck flap, a half-rate brownout, and a switch that drops half
   its ECN marks — and tabulates how far DCTCP and DT-DCTCP drift from
   their fault-free operating points. All fault realizations are seeded,
   so the table is bit-stable across runs and -j levels. *)

let epilogue (r : Exp.Claim.report) =
  let flap protocol =
    Option.bind (Exp.Claim.find r ~protocol ~point:"flap") (fun run ->
        Exp.Claim.series run.outcome)
  in
  (match (flap "dctcp", flap "dt-dctcp") with
  | Some dc, Some dt ->
      Printf.printf
        "\nqueue occupancy through the flap (down 150ms, up 170ms):\n%s"
        (Stats.Ascii_plot.render ~height:12
           ~series:[ ("DCTCP", dc); ("DT-DCTCP", dt) ]
           ())
  | _ -> ());
  print_string
    "\nExpectation (loss, points p*): both transports degrade gracefully to\n\
     ~1% loss; DT-DCTCP keeps the lower queue stddev at every loss rate.\n\
     Expectation (flap: 20 ms down; brownout: 50 ms at half rate): the\n\
     queue drains during the outage, spikes on recovery, and re-converges;\n\
     DT-DCTCP's post-fault oscillation stays the narrower one.\n\
     Expectation (points n*, 50% of ECN marks dropped): queues sit higher\n\
     than the fault-free sweep at every N (half the congestion signal is\n\
     gone) but both transports remain drop-free longer than plain ECN\n\
     would suggest; DT-DCTCP's double threshold still damps swings.\n"
