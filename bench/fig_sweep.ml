(* Figures 10, 12 and 11 compare the protocols point by point over the
   flow count: the mean queue normalized to each protocol's N=10
   baseline, the queue deviation of DT-DCTCP over DCTCP's, and the gap
   between their mean alphas. The sweep claim records every per-run
   value; this epilogue derives the cross-run ones by label. *)

let epilogue (r : Exp.Claim.report) =
  let ns = Exp.Registry.sweep_ns in
  let v key protocol n =
    Exp.Claim.value r key ~protocol ~point:(Printf.sprintf "n%d" n)
  in
  let both f a b =
    match (a, b) with Some a, Some b -> Some (f a b) | _ -> None
  in
  let normalized protocol n =
    both ( /. ) (v "mean_queue" protocol n) (v "mean_queue" protocol 10)
  in
  let t =
    Stats.Table.create ~title:"Figures 10-12: DT-DCTCP against DCTCP, by N"
      ~columns:
        [
          Stats.Table.column "N";
          Stats.Table.column "DCTCP mean (xN=10)";
          Stats.Table.column "DT mean (xN=10)";
          Stats.Table.column "std DT/DCTCP";
          Stats.Table.column "alpha DCTCP - DT";
        ]
  in
  List.iter
    (fun n ->
      Stats.Table.add_row t
        [
          string_of_int n;
          Bench_common.cell 2 (normalized "dctcp" n);
          Bench_common.cell 2 (normalized "dt-dctcp" n);
          Bench_common.cell 2
            (both ( /. ) (v "std_queue" "dt-dctcp" n) (v "std_queue" "dctcp" n));
          Bench_common.cell 3
            (both ( -. ) (v "alpha" "dctcp" n) (v "alpha" "dt-dctcp" n));
        ])
    ns;
  Printf.printf "\n";
  Stats.Table.print t;
  let plot title f =
    let series protocol = Array.of_list (List.filter_map (f protocol) ns) in
    Printf.printf "\n%s:\n%s" title
      (Stats.Ascii_plot.render ~height:12
         ~series:[ ("DCTCP", series "dctcp"); ("DT-DCTCP", series "dt-dctcp") ]
         ())
  in
  plot "normalized mean queue vs N (both series)" normalized;
  Printf.printf
    "Paper (Fig. 10): DCTCP strays from ~N=35 (up to 1.8x baseline, local \
     max near N=60);\nDT-DCTCP stays near 1.0x until ~N=70.\n";
  plot "queue stddev vs N" (v "std_queue");
  Printf.printf
    "Paper (Fig. 11): both grow with N; DT-DCTCP below DCTCP at every N.\n\
     Paper (Fig. 12): both alphas grow with N; DT-DCTCP's stays below \
     DCTCP's (by ~0.1)\nwhile throughput stays at line rate.\n"
