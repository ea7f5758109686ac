(* Incast scenario: sweep the number of synchronized senders on the 1 Gbps
   testbed star and find where each protocol's goodput collapses — the
   paper's Figure 14 experiment as a library-use example.

   Run with: dune exec examples/incast_scenario.exe *)

module F = Workloads.Fanin

let sweep name proto =
  Printf.printf "\n%s\n" name;
  Printf.printf "  flows  goodput(Mbps)  timeouts/run\n";
  let collapse = ref None in
  List.iter
    (fun n ->
      let cfg =
        { (F.default_config F.Incast) with F.n_flows = n; repeats = 10 }
      in
      match F.run Workloads.Workload.bare proto cfg with
      | F.Goodput r ->
          let mbps = r.F.mean_goodput_bps /. 1e6 in
          if mbps < 500. && !collapse = None then collapse := Some n;
          Printf.printf "  %5d  %13.1f  %12.1f\n%!" n mbps r.F.timeouts_per_run
      | F.Completion_time _ | F.Deadlines_met _ -> assert false)
    [ 8; 16; 24; 30; 32; 34; 36; 38; 40 ];
  match !collapse with
  | Some n -> Printf.printf "  -> goodput collapses at %d flows\n" n
  | None -> Printf.printf "  -> no collapse in this range\n"

let () =
  print_endline
    "Incast: n workers each answer a query with 64 KB simultaneously";
  print_endline
    "(1 Gbps links, 128 KB bottleneck buffer, 200 ms min RTO, 300 us jitter)";
  sweep "DCTCP, K = 32 KB" (Dctcp.Protocol.dctcp ~k_bytes:(32 * 1024) ());
  sweep "DT-DCTCP, start 28 KB / stop 34 KB"
    (Dctcp.Protocol.dt_dctcp ~k1_bytes:(28 * 1024) ~k2_bytes:(34 * 1024) ());
  print_endline
    "\nDT-DCTCP's smaller queue swings keep the shallow buffer from\n\
     overflowing a few flows longer, postponing the collapse (paper: 32 vs 37)."
