(* The closed-form sections of the evaluation, behind `dtsim model`: the
   marking strategies on a synthetic queue swing (Figure 2), the
   describing functions (Figures 3-8), the Nyquist analysis (Figure 9)
   and the describing function against the fluid model. None of them
   simulates packets, so none is an Exp.Claim. *)

module C = Control.Cplx
module Df = Control.Df
module St = Control.Stability
module Plant = Control.Plant
module Fm = Fluid.Dctcp_fluid

let section_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Figure 2: drive both policies over one synthetic queue swing and show
   where each marks. *)
let fig2 () =
  section_header "Figure 2: marking strategies on one synthetic queue swing";
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

(* Describing-function validation (the quantitative content of the paper's
   Figures 3-8) and Figure 9 (Nyquist stability comparison). *)

let fig_df () =
  section_header
    "Figures 3-8: describing functions, closed form vs numeric Fourier";
  let t =
    Stats.Table.create ~title:"DF values (K=40; K1=30, K2=50)"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "mechanism";
          Stats.Table.column "X (pkts)";
          Stats.Table.column "closed form";
          Stats.Table.column "numeric";
          Stats.Table.column "rel err";
        ]
  in
  let row name closed numeric x =
    let err = C.dist closed numeric /. Float.max 1e-12 (C.modulus closed) in
    Stats.Table.add_row t
      [
        name;
        Stats.Table.fmt_f 0 x;
        C.to_string closed;
        C.to_string numeric;
        Printf.sprintf "%.2e" err;
      ]
  in
  List.iter
    (fun x ->
      let closed = Df.relay ~k:40. ~x in
      let numeric =
        Df.fundamental_of_indicator
          (fun theta -> Df.relay_indicator ~k:40. ~x ~theta)
          ~x ~n:200000
      in
      row "relay (DCTCP, Eq.22)" closed numeric x)
    [ 45.; 57.; 80.; 150. ];
  List.iter
    (fun x ->
      let closed = Df.hysteresis ~k1:30. ~k2:50. ~x in
      let numeric =
        Df.fundamental_of_indicator
          (fun theta -> Df.hysteresis_indicator ~k1:30. ~k2:50. ~x ~theta)
          ~x ~n:200000
      in
      row "hysteresis (DT, Eq.27)" closed numeric x)
    [ 55.; 70.; 100.; 200. ];
  Stats.Table.print t;
  Printf.printf
    "\nThe hysteresis DF has a positive imaginary part (phase lead), which\n\
     is what pushes -1/N0_dt away from the plant locus in Figure 9.\n"

let fig9 () =
  section_header "Figure 9: Nyquist analysis (Theorems 1 and 2)";
  let c = 10e9 /. 12000. and g = 1. /. 16. in
  let grids = { St.default_grids with St.w_points = 1500; x_points = 800 } in
  let t =
    Stats.Table.create
      ~title:
        "paper parameters (C=10G, R0=100us, g=1/16, K=40 | K1=30, K2=50): \
         gain margins"
      ~columns:
        [
          Stats.Table.column "N";
          Stats.Table.column "DCTCP margin";
          Stats.Table.column "DT margin";
          Stats.Table.column "DT/DCTCP";
          Stats.Table.column ~align:Stats.Table.Left "verdicts";
        ]
  in
  List.iter
    (fun n ->
      let p = Plant.params ~c ~n ~r0:1e-4 ~g in
      let mdc = St.dctcp_margin ~grids p ~k:40. in
      let mdt = St.dt_dctcp_margin ~grids p ~k1:30. ~k2:50. in
      let vdc = St.dctcp ~grids p ~k:40. in
      let vdt = St.dt_dctcp ~grids p ~k1:30. ~k2:50. in
      Stats.Table.add_row t
        [
          string_of_int n;
          Stats.Table.fmt_f 3 mdc;
          Stats.Table.fmt_f 3 mdt;
          Stats.Table.fmt_f 3 (mdt /. mdc);
          Format.asprintf "%a / %a" St.pp_verdict vdc St.pp_verdict vdt;
        ])
    [ 10; 20; 30; 40; 50; 60; 70; 80; 100; 150; 200 ];
  Stats.Table.print t;
  Printf.printf
    "\nWith the paper's stated parameters the printed G(jw) never reaches\n\
     the DF loci (see EXPERIMENTS.md): both systems are margin-stable, but\n\
     DCTCP's margin dips lowest near N=50-60 (where the paper's Figure 10\n\
     observes the worst queue deviation) and DT-DCTCP keeps 13-27%% more\n\
     margin at every N.\n";
  (* A configuration where the loci do intersect, showing the paper's
     ordering of critical N. *)
  let r0 = 1e-3 in
  let t2 =
    Stats.Table.create
      ~title:"long-RTT variant (R0=1ms): predicted oscillation onset"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "protocol";
          Stats.Table.column "critical N";
          Stats.Table.column ~align:Stats.Table.Left "limit cycle at N=100";
        ]
  in
  let crit verdict_at =
    St.critical_n ~c ~r0 ~g ~n_max:200 ~verdict_at ()
  in
  let p100 = Plant.params ~c ~n:100 ~r0 ~g in
  let dc_crit = crit (fun p -> St.dctcp ~grids p ~k:40.) in
  let dt_crit = crit (fun p -> St.dt_dctcp ~grids p ~k1:30. ~k2:50.) in
  let str = function Some n -> string_of_int n | None -> "> 200" in
  Stats.Table.add_row t2
    [
      "DCTCP";
      str dc_crit;
      Format.asprintf "%a" St.pp_verdict (St.dctcp ~grids p100 ~k:40.);
    ];
  Stats.Table.add_row t2
    [
      "DT-DCTCP";
      str dt_crit;
      Format.asprintf "%a" St.pp_verdict
        (St.dt_dctcp ~grids p100 ~k1:30. ~k2:50.);
    ];
  Stats.Table.print t2;
  Printf.printf
    "\nPaper: loci intersect at N=60 (DCTCP) vs N=70 (DT-DCTCP). Here the\n\
     same ordering appears (DCTCP first), with the gap direction and the\n\
     mechanism (hysteresis phase lead) reproduced.\n"

(* The describing function's limit cycle against the integrated fluid
   model's, in the long-RTT configuration. *)
let df_vs_fluid () =
  section_header
    "Validation: DF-predicted limit cycle vs integrated fluid model \
     (long-RTT configuration, R0=1ms, fixed-RTT fluid as in the analysis)";
  let c = 10e9 /. 12000. and r0 = 1e-3 and g = 1. /. 16. in
  let grids =
    { Control.Stability.default_grids with
      Control.Stability.w_points = 1200; x_points = 600 }
  in
  let t =
    Stats.Table.create
      ~title:"amplitude X (pkts) and frequency w (rad/s): prediction vs fluid"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "protocol";
          Stats.Table.column "N";
          Stats.Table.column "DF X";
          Stats.Table.column "fluid X";
          Stats.Table.column "DF w";
          Stats.Table.column "fluid w";
        ]
  in
  let fluid_cycle marking n =
    let p =
      Fm.make ~variable_rtt:false ~n ~c ~r0 ~g ~marking
        ~init_w:(r0 *. c /. float_of_int n)
        ~init_alpha:0.3 ~init_q:20. ()
    in
    let traj = Fm.simulate p ~t_end:1.0 () in
    Fluid.Limit_cycle.of_queue traj ~discard:0.5
  in
  List.iter
    (fun n ->
      let params = Control.Plant.params ~c ~n ~r0 ~g in
      let add name verdict cycle =
        let df_x, df_w =
          match verdict with
          | Control.Stability.Oscillatory o ->
              ( Stats.Table.fmt_f 1 o.Control.Stability.amplitude,
                Stats.Table.fmt_f 0 o.Control.Stability.omega )
          | Control.Stability.Stable -> ("stable", "-")
        in
        let fl_x, fl_w =
          match cycle with
          | Some (lc : Fluid.Limit_cycle.t) ->
              ( Stats.Table.fmt_f 1 lc.Fluid.Limit_cycle.amplitude,
                Stats.Table.fmt_f 0 lc.Fluid.Limit_cycle.omega )
          | None -> ("none", "-")
        in
        Stats.Table.add_row t [ name; string_of_int n; df_x; fl_x; df_w; fl_w ]
      in
      add "DCTCP"
        (Control.Stability.dctcp ~grids params ~k:40.)
        (fluid_cycle (Fm.Single 40.) n);
      add "DT-DCTCP"
        (Control.Stability.dt_dctcp ~grids params ~k1:30. ~k2:50.)
        (fluid_cycle (Fm.Double (30., 50.)) n))
    [ 60; 100; 150 ];
  Stats.Table.print t;
  Printf.printf
    "\nThe DF is a first-harmonic approximation of a saw-like waveform, so\n\
     factor-<2 agreement is the expected accuracy; the ordering it predicts\n\
     (DT-DCTCP oscillates with smaller amplitude and higher frequency than\n\
     DCTCP at every N) holds exactly in the integrated model.\n"

let sections =
  [
    ("fig2", fig2);
    ("fig_df", fig_df);
    ("fig9", fig9);
    ("df_vs_fluid", df_vs_fluid);
  ]
