(* Figure 1 (queue oscillation traces) and Figure 2 (marking strategies). *)

(* Plots a 4 ms excerpt of each run's queue so individual oscillation
   periods resolve. *)
let fig1 (r : Exp.Claim.report) =
  List.iter
    (fun (run : Exp.Claim.run) ->
      Option.iter
        (fun series ->
          let name = run.outcome.Exp.Runner.spec.Exp.Spec.name in
          let n = Array.length series in
          let excerpt = Array.sub series (n / 2) (Int.min 200 (n / 2)) in
          Printf.printf "\n%s (4 ms excerpt, queue in packets):\n%s" name
            (Stats.Ascii_plot.render ~height:10 ~series:[ (name, excerpt) ] ()))
        (Exp.Claim.series run.outcome))
    r.runs;
  Printf.printf
    "\nPaper's claim: DCTCP's swing at N=100 is ~3-4x its N=10 swing, and\n\
     DT-DCTCP swings less at equal N. Compare the std_queue and peak_to_peak \
     columns.\n"

(* Figure 2: drive both policies over one synthetic queue swing and show
   where each marks. *)
let fig2 () =
  Bench_common.section_header
    "Figure 2: marking strategies on one synthetic queue swing";
  let pkt = 1500 in
  let swing =
    (* occupancy in packets: up 0..60, down 60..0 *)
    List.init 121 (fun i -> if i <= 60 then i else 120 - i)
  in
  let run name policy =
    let prev = ref 0 in
    let cells =
      List.map
        (fun occ_pkts ->
          let bytes = occ_pkts * pkt in
          let mark =
            if occ_pkts >= !prev then
              policy.Net.Marking.on_enqueue ~bytes ~packets:occ_pkts
            else begin
              policy.Net.Marking.on_dequeue ~bytes ~packets:occ_pkts;
              (* probe the marking state without a crossing *)
              policy.Net.Marking.on_enqueue ~bytes ~packets:occ_pkts
            end
          in
          prev := occ_pkts;
          if mark then '#' else '.')
        swing
    in
    Printf.printf "%-22s %s\n" name
      (String.init (List.length cells) (List.nth cells))
  in
  Printf.printf
    "queue rises 0->60 pkts then falls 60->0; '#' = marking active\n\n";
  Printf.printf "%-22s %s\n" "queue (pkts)"
    "0.........1.........2.........3.........4.........5.........6<peak>5.........4.........3.........2.........1.........0";
  run "DCTCP (K=40)" (Dctcp.Marking_policies.single_threshold ~k_bytes:(40 * pkt));
  run "DT-DCTCP (K1=30,K2=50)"
    (Dctcp.Marking_policies.double_threshold ~k1_bytes:(30 * pkt)
       ~k2_bytes:(50 * pkt) ());
  Printf.printf
    "\nDCTCP marks exactly while the queue exceeds K=40 (both directions).\n\
     DT-DCTCP starts earlier on the rise (K1=30) and, once past K2, keeps\n\
     marking on the fall only until the queue drops back to K2=50.\n"
