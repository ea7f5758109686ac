(* Ablation benches for the design choices DESIGN.md calls out: threshold
   placement, the EWMA gain g, the marking-policy family, the testbed's
   threshold labels, and the fluid model as a cross-check of the packet
   simulator. The simulated ablations are Exp.Claim declarations; here
   are their notes, and the closed-form describing-function-vs-fluid
   validation, which stays outside the experiment layer. *)

module Fm = Fluid.Dctcp_fluid

let thresholds =
  Bench_common.note
    "Points name (K1, K2) in packets.\n\
     Wider splits start marking earlier (lower mean queue) and stop\n\
     earlier on descents; too wide a split costs utilization headroom.\n"

let g =
  Bench_common.note
    "The paper fixes g=1/16; the DT advantage in stddev persists across\n\
     gains (slower gains smooth alpha but react later).\n"

let policies =
  Bench_common.note
    "The paper's background claim: plain ECN (on/off halving) wastes the\n\
     queue headroom and Reno fills the buffer; DCTCP holds the queue near K\n\
     and DT-DCTCP holds it with less variance.\n"

let testbed_labels =
  Bench_common.note
    "Read literally (thermostat: start 34KB, stop 28KB) the DT thresholds\n\
     collapse no later than DCTCP; read as (start=lower, stop=higher) they\n\
     postpone the collapse as the paper's Figure 14 reports — the basis for\n\
     the label-swap conclusion in DESIGN.md.\n"

let fluid =
  Bench_common.note
    "The deterministic fluid model sits near the thresholds by\n\
     construction; the packet simulator adds ACK-clocking burstiness and\n\
     window quantization, which lift the mean at large N (the oscillation\n\
     the paper studies).\n"

let df_vs_fluid () =
  Bench_common.section_header
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
