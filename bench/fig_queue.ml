(* Figure 1 (queue oscillation traces) and Figure 2 (marking strategies). *)

module L = Workloads.Longlived

let fig1 () =
  Bench_common.section_header
    "Figure 1: queue at the switch, DCTCP vs DT-DCTCP, N=10 and N=100";
  let specs =
    Exp.Registry.fig_queue_specs ~warmup:(Bench_common.warmup ())
      ~measure:(Bench_common.measure ()) ()
  in
  let outcomes = Bench_common.run_specs specs in
  let results =
    Array.to_list
      (Array.map
         (fun (o : Exp.Runner.outcome) ->
           let r = Bench_common.longlived_of o in
           let series =
             match r.L.queue_series with
             | Some s -> Array.map snd s
             | None -> [||]
           in
           (o.Exp.Runner.spec.Exp.Spec.name, (r, series)))
         outcomes)
  in
  let t =
    Stats.Table.create ~title:"queue statistics (packets)"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "case";
          Stats.Table.column "mean";
          Stats.Table.column "stddev";
          Stats.Table.column "max";
          Stats.Table.column "peak-to-peak";
          Stats.Table.column "util";
        ]
  in
  List.iter
    (fun (name, (r, series)) ->
      let lo = Array.fold_left Float.min infinity series in
      let hi = Array.fold_left Float.max neg_infinity series in
      Stats.Table.add_row t
        [
          name;
          Stats.Table.fmt_f 1 r.L.mean_queue_pkts;
          Stats.Table.fmt_f 2 r.L.std_queue_pkts;
          Stats.Table.fmt_f 0 r.L.max_queue_pkts;
          Stats.Table.fmt_f 0 (hi -. lo);
          Stats.Table.fmt_f 3 r.L.utilization;
        ])
    results;
  Stats.Table.print t;
  List.iter
    (fun (name, (_, series)) ->
      (* Plot a 4 ms excerpt so individual oscillation periods resolve. *)
      let n = Array.length series in
      let excerpt = Array.sub series (n / 2) (Int.min 200 (n / 2)) in
      Printf.printf "\n%s (4 ms excerpt, queue in packets):\n%s" name
        (Stats.Ascii_plot.render ~height:10 ~series:[ (name, excerpt) ] ()))
    results;
  Printf.printf
    "\nPaper's claim: DCTCP's swing at N=100 is ~3-4x its N=10 swing, and\n\
     DT-DCTCP swings less at equal N. Compare the stddev/peak-to-peak rows.\n"

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
