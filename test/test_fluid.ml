(* Tests for the DDE integrator and the DCTCP fluid model. *)

module Dde = Fluid.Dde
module Fm = Fluid.Dctcp_fluid

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

(* --- Dde on known systems --- *)

let test_dde_exponential_decay () =
  (* x' = -x, no delay involvement: x(t) = e^{-t} *)
  let problem =
    {
      Dde.dim = 1;
      deriv = (fun ~t:_ ~state ~delayed:_ -> [| -.state.(0) |]);
      output = (fun ~t:_ ~state:_ -> 0.);
      tau = 1.;
      init_state = [| 1. |];
      init_output = 0.;
    }
  in
  let sol = Dde.integrate problem ~dt:1e-3 ~t_end:1. in
  let x = Dde.component sol 0 in
  let last = x.(Array.length x - 1) in
  checkb "e^{-1}" true (Float.abs (last -. Stdlib.exp (-1.)) < 1e-6)

let test_dde_harmonic_oscillator () =
  (* x'' = -x as a 2d system; energy conserved by RK4 over a few periods *)
  let problem =
    {
      Dde.dim = 2;
      deriv = (fun ~t:_ ~state ~delayed:_ -> [| state.(1); -.state.(0) |]);
      output = (fun ~t:_ ~state:_ -> 0.);
      tau = 1.;
      init_state = [| 1.; 0. |];
      init_output = 0.;
    }
  in
  let sol = Dde.integrate problem ~dt:1e-3 ~t_end:(4. *. Float.pi) in
  let n = Array.length sol.Dde.times - 1 in
  let x = sol.Dde.states.(n).(0) and v = sol.Dde.states.(n).(1) in
  checkb "energy" true (Float.abs ((x *. x) +. (v *. v) -. 1.) < 1e-6);
  (* after two full periods we are back at the start *)
  checkb "periodic" true (Float.abs (x -. 1.) < 1e-4)

let test_dde_delay_shift () =
  (* x' = y(t - tau) where y(t) = t: x should integrate a ramp delayed by
     tau (zero before tau since init_output = 0). *)
  let problem =
    {
      Dde.dim = 1;
      deriv = (fun ~t:_ ~state:_ ~delayed -> [| delayed |]);
      output = (fun ~t ~state:_ -> t);
      tau = 1.;
      init_state = [| 0. |];
      init_output = 0.;
    }
  in
  let sol = Dde.integrate problem ~dt:1e-3 ~t_end:2. in
  let x = Dde.component sol 0 in
  let last = x.(Array.length x - 1) in
  (* integral of (t-1) over [1,2] = 0.5 *)
  checkb "delayed ramp" true (Float.abs (last -. 0.5) < 1e-3)

let test_dde_validation () =
  let p =
    {
      Dde.dim = 1;
      deriv = (fun ~t:_ ~state:_ ~delayed:_ -> [| 0. |]);
      output = (fun ~t:_ ~state:_ -> 0.);
      tau = 1.;
      init_state = [| 0. |];
      init_output = 0.;
    }
  in
  checkb "bad dt" true
    (match Dde.integrate p ~dt:0. ~t_end:1. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad tau" true
    (match Dde.integrate { p with Dde.tau = -1. } ~dt:0.1 ~t_end:1. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "dim mismatch" true
    (match Dde.integrate { p with Dde.init_state = [||] } ~dt:0.1 ~t_end:1. with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Dctcp_fluid --- *)

let paper_fluid ?(n = 10) ?(marking = Fm.Single 40.) () =
  Fm.make ~n ~c:(10e9 /. 12000.) ~r0:1e-4 ~g:(1. /. 16.) ~marking ()

let test_fluid_equilibrium_values () =
  let p = paper_fluid () in
  checkf ~eps:1e-2 "w0" 8.33 (Fm.w0 p);
  checkf ~eps:1e-3 "alpha0" (sqrt (2. /. (1e-4 *. (10e9 /. 12000.) /. 10.)))
    (Fm.alpha0 p);
  (* alpha0 capped at 1 when the operating point degenerates *)
  let p100 = paper_fluid ~n:100 () in
  checkf "alpha0 capped" 1. (Fm.alpha0 p100)

let test_fluid_reaches_capacity () =
  let p = paper_fluid () in
  let traj = Fm.simulate p ~t_end:0.2 in
  (* In steady state N W / R0 ~ C: per-flow window near W0. *)
  let n = Array.length traj.Fm.w in
  let w_tail = traj.Fm.w.(n - 1) in
  checkb "window near equilibrium" true
    (Float.abs (w_tail -. Fm.w0 p) /. Fm.w0 p < 0.5)

let test_fluid_queue_near_k () =
  let p = paper_fluid () in
  let traj = Fm.simulate p ~t_end:0.3 in
  let mean, _ = Fm.queue_stats traj ~discard:0.1 in
  checkb
    (Printf.sprintf "queue mean %.1f around K=40" mean)
    true
    (mean > 10. && mean < 80.)

let test_fluid_queue_nonnegative () =
  let p = paper_fluid () in
  let traj = Fm.simulate p ~t_end:0.2 in
  Array.iter (fun q -> checkb "q >= 0" true (q >= -1e-9)) traj.Fm.q

let test_fluid_alpha_in_range () =
  let p = paper_fluid () in
  let traj = Fm.simulate p ~t_end:0.2 in
  Array.iter
    (fun a -> checkb "alpha in [0,1]" true (a >= -1e-9 && a <= 1.0 +. 1e-9))
    traj.Fm.alpha

let test_fluid_marking_indicator_consistent () =
  let p = paper_fluid () in
  let traj = Fm.simulate p ~t_end:0.05 in
  (* Wherever p = 1 the queue must be above K at that instant (relay). *)
  Array.iteri
    (fun i pi ->
      if pi > 0.5 then checkb "relay consistency" true (traj.Fm.q.(i) > 40.))
    traj.Fm.p

let test_fluid_dt_variant_runs () =
  let p = paper_fluid ~marking:(Fm.Double (30., 50.)) () in
  let traj = Fm.simulate p ~t_end:0.3 in
  let mean, std = Fm.queue_stats traj ~discard:0.1 in
  checkb "dt queue bounded" true (mean > 5. && mean < 100.);
  checkb "std finite" true (Float.is_finite std)

let test_fluid_dt_hysteresis_marks_above_hi () =
  (* With Double(30,50), any instant with q > 50 must be marking. *)
  let p = paper_fluid ~marking:(Fm.Double (30., 50.)) () in
  let traj = Fm.simulate p ~t_end:0.1 in
  Array.iteri
    (fun i pi ->
      if traj.Fm.q.(i) > 50.5 then
        checkb "above hi marks" true (pi > 0.5))
    traj.Fm.p

let test_fluid_oscillation_amplitude () =
  let p = paper_fluid () in
  let traj = Fm.simulate p ~t_end:0.3 in
  let amp = Fm.oscillation_amplitude traj ~discard:0.1 in
  checkb "positive amplitude" true (amp > 0.)

let test_fluid_more_flows_higher_alpha () =
  let run n =
    let traj = Fm.simulate (paper_fluid ~n ()) ~t_end:0.3 in
    let start = Array.length traj.Fm.alpha / 2 in
    let sum = ref 0. in
    for i = start to Array.length traj.Fm.alpha - 1 do
      sum := !sum +. traj.Fm.alpha.(i)
    done;
    !sum /. float_of_int (Array.length traj.Fm.alpha - start)
  in
  checkb "alpha grows with N" true (run 50 > run 5)

let test_fluid_validation () =
  checkb "bad n" true
    (match Fm.make ~n:0 ~c:1. ~r0:1. ~g:0.5 ~marking:(Fm.Single 1.) () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad threshold" true
    (match
       Fm.make ~n:1 ~c:1. ~r0:1. ~g:0.5 ~marking:(Fm.Double (-1., 2.)) ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let p = paper_fluid () in
  let traj = Fm.simulate p ~t_end:0.01 in
  checkb "discard beyond end raises" true
    (match Fm.queue_stats traj ~discard:1. with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Limit_cycle --- *)

let synthetic_sine ~amp ~freq ~offset ~t_end ~dt =
  let n = int_of_float (t_end /. dt) in
  let times = Array.init n (fun i -> float_of_int i *. dt) in
  let values =
    Array.map (fun t -> offset +. (amp *. sin (2. *. Float.pi *. freq *. t)))
      times
  in
  (times, values)

let test_limit_cycle_sine () =
  let times, values =
    synthetic_sine ~amp:25. ~freq:140. ~offset:60. ~t_end:0.2 ~dt:1e-5
  in
  match Fluid.Limit_cycle.measure ~times ~values ~discard:0.05 with
  | Some lc ->
      checkb "amplitude" true (Float.abs (lc.Fluid.Limit_cycle.amplitude -. 25.) < 0.5);
      checkb "frequency" true
        (Float.abs ((1. /. lc.Fluid.Limit_cycle.period) -. 140.) < 2.);
      checkb "omega consistent" true
        (Float.abs
           (lc.Fluid.Limit_cycle.omega
           -. (2. *. Float.pi /. lc.Fluid.Limit_cycle.period))
        < 1e-6);
      checkb "mean" true (Float.abs (lc.Fluid.Limit_cycle.mean -. 60.) < 0.5);
      checkb "cycles counted" true (lc.Fluid.Limit_cycle.cycles >= 15)
  | None -> Alcotest.fail "expected a limit cycle"

let test_limit_cycle_flat_signal () =
  let times = Array.init 1000 (fun i -> float_of_int i *. 1e-4) in
  let values = Array.make 1000 42. in
  checkb "no cycle on flat" true
    (Fluid.Limit_cycle.measure ~times ~values ~discard:0.01 = None)

let test_limit_cycle_too_few_cycles () =
  (* half a period only *)
  let times, values =
    synthetic_sine ~amp:10. ~freq:1. ~offset:0. ~t_end:0.5 ~dt:1e-3
  in
  checkb "needs 3 cycles" true
    (Fluid.Limit_cycle.measure ~times ~values ~discard:0.0 = None)

let test_limit_cycle_validation () =
  let times = [| 0.; 1. |] in
  checkb "length mismatch" true
    (match Fluid.Limit_cycle.measure ~times ~values:[| 0. |] ~discard:0. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "discard too large" true
    (match
       Fluid.Limit_cycle.measure ~times ~values:[| 0.; 1. |] ~discard:10.
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_limit_cycle_of_fluid_oscillation () =
  (* Long-RTT fixed-R0 configuration: the relay loop produces a sustained
     oscillation whose DT amplitude is below DCTCP's (paper's ordering). *)
  let c = 10e9 /. 12000. and r0 = 1e-3 and g = 1. /. 16. in
  let cycle marking =
    let p =
      Fm.make ~variable_rtt:false ~n:100 ~c ~r0 ~g ~marking
        ~init_w:(r0 *. c /. 100.) ~init_alpha:0.3 ~init_q:20. ()
    in
    let traj = Fm.simulate p ~t_end:0.6 in
    Fluid.Limit_cycle.of_queue traj ~discard:0.3
  in
  match (cycle (Fm.Single 40.), cycle (Fm.Double (30., 50.))) with
  | Some dc, Some dt ->
      checkb "dctcp oscillates substantially" true
        (dc.Fluid.Limit_cycle.amplitude > 40.);
      checkb
        (Printf.sprintf "dt amplitude %.1f < dctcp amplitude %.1f"
           dt.Fluid.Limit_cycle.amplitude dc.Fluid.Limit_cycle.amplitude)
        true
        (dt.Fluid.Limit_cycle.amplitude < dc.Fluid.Limit_cycle.amplitude)
  | _ -> Alcotest.fail "expected oscillation in both systems"

let suites =
  [
    ( "fluid.dde",
      [
        Alcotest.test_case "exponential decay" `Quick test_dde_exponential_decay;
        Alcotest.test_case "harmonic oscillator" `Quick
          test_dde_harmonic_oscillator;
        Alcotest.test_case "delay shift" `Quick test_dde_delay_shift;
        Alcotest.test_case "validation" `Quick test_dde_validation;
      ] );
    ( "fluid.dctcp",
      [
        Alcotest.test_case "equilibrium values" `Quick
          test_fluid_equilibrium_values;
        Alcotest.test_case "reaches capacity" `Quick test_fluid_reaches_capacity;
        Alcotest.test_case "queue near K" `Quick test_fluid_queue_near_k;
        Alcotest.test_case "queue non-negative" `Quick
          test_fluid_queue_nonnegative;
        Alcotest.test_case "alpha in range" `Quick test_fluid_alpha_in_range;
        Alcotest.test_case "relay indicator consistent" `Quick
          test_fluid_marking_indicator_consistent;
        Alcotest.test_case "double-threshold variant" `Quick
          test_fluid_dt_variant_runs;
        Alcotest.test_case "hysteresis marks above hi" `Quick
          test_fluid_dt_hysteresis_marks_above_hi;
        Alcotest.test_case "oscillation amplitude" `Quick
          test_fluid_oscillation_amplitude;
        Alcotest.test_case "alpha grows with N" `Quick
          test_fluid_more_flows_higher_alpha;
        Alcotest.test_case "validation" `Quick test_fluid_validation;
      ] );
    ( "fluid.limit_cycle",
      [
        Alcotest.test_case "synthetic sine" `Quick test_limit_cycle_sine;
        Alcotest.test_case "flat signal" `Quick test_limit_cycle_flat_signal;
        Alcotest.test_case "too few cycles" `Quick
          test_limit_cycle_too_few_cycles;
        Alcotest.test_case "validation" `Quick test_limit_cycle_validation;
        Alcotest.test_case "fluid oscillation ordering" `Slow
          test_limit_cycle_of_fluid_oscillation;
      ] );
  ]
