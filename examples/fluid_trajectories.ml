(* Fluid trajectories: integrate the paper's delay-differential fluid model
   (Eqs. 1-3) for both marking mechanisms and render the queue paths.

   Run with: dune exec examples/fluid_trajectories.exe
   Also writes fluid_dctcp.csv / fluid_dt.csv in the current directory
   (the build directory, _build/default/examples, under dune runtest). *)

module Fm = Fluid.Dctcp_fluid

let simulate name marking csv_file =
  let params =
    Fm.make ~n:20 ~c:(10e9 /. 12000.) ~r0:1e-4 ~g:(1. /. 16.) ~marking ()
  in
  let traj = Fm.simulate params ~t_end:0.05 in
  let mean, std = Fm.queue_stats traj ~discard:0.02 in
  Printf.printf "%-22s queue mean %.1f pkts, stddev %.2f, swing %.1f\n" name
    mean std
    (Fm.oscillation_amplitude traj ~discard:0.02);
  let oc = open_out csv_file in
  output_string oc "t_s,w_pkts,alpha,q_pkts,p\n";
  Array.iteri
    (fun i t ->
      Printf.fprintf oc "%g,%g,%g,%g,%g\n" t traj.Fm.w.(i) traj.Fm.alpha.(i)
        traj.Fm.q.(i) traj.Fm.p.(i))
    traj.Fm.times;
  close_out oc;
  (* Down-sample the tail of the queue trajectory for the terminal plot. *)
  let n = Array.length traj.Fm.q in
  let tail = Array.sub traj.Fm.q (n / 2) (n / 2) in
  let step = Int.max 1 (Array.length tail / 400) in
  Array.init (Array.length tail / step) (fun i -> tail.(i * step))

let () =
  print_endline "DCTCP fluid model, N=20 flows, C=10 Gbps, R0=100 us, g=1/16";
  let q_dc = simulate "single threshold K=40" (Fm.Single 40.) "fluid_dctcp.csv" in
  let q_dt =
    simulate "double threshold (30,50)" (Fm.Double (30., 50.)) "fluid_dt.csv"
  in
  print_newline ();
  print_string
    (Stats.Ascii_plot.render ~height:14 ~y_label:"queue (packets), last 25 ms"
       ~series:[ ("DCTCP", q_dc); ("DT-DCTCP", q_dt) ]
       ());
  print_endline "\nFull trajectories: fluid_dctcp.csv, fluid_dt.csv"
