(* Tests for the describing-function machinery: complex helpers, the plant
   transfer function, closed-form DFs against numerical Fourier
   integration, Nyquist geometry, and the stability theorems. *)

module C = Control.Cplx
module Plant = Control.Plant
module Df = Control.Df
module Ny = Control.Nyquist
module St = Control.Stability

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg
let close ?(eps = 1e-9) a b = C.dist a b < eps

(* --- Cplx --- *)

let test_cplx_arith () =
  let open C in
  let a = make 1. 2. and b = make 3. (-1.) in
  checkb "add" true (close (a +: b) (make 4. 1.));
  checkb "mul" true (close (a *: b) (make 5. 5.));
  checkb "div roundtrip" true (close (a *: b /: b) a);
  checkb "scale" true (close (scale 2. a) (make 2. 4.));
  checkb "neg" true (close (neg a) (make (-1.) (-2.)));
  checkb "inv" true (close (inv a *: a) one)

let test_cplx_polar () =
  let z = C.scale 2. (C.exp (C.im (Float.pi /. 2.))) in
  checkb "polar" true (close ~eps:1e-12 z (C.make 0. 2.));
  checkf ~eps:1e-12 "modulus" 2. (C.modulus z)

let test_cplx_exp () =
  (* e^{j pi} = -1 *)
  checkb "euler" true
    (close ~eps:1e-12 (C.exp (C.im Float.pi)) (C.re (-1.)))

let test_cplx_misc () =
  checkf ~eps:1e-12 "dist" 5. (C.dist (C.make 0. 0.) (C.make 3. 4.));
  checkb "finite" true (C.is_finite (C.make 1. 2.));
  checkb "infinite" false (C.is_finite (C.make Float.infinity 0.));
  checkb "nan" false (C.is_finite (C.make 0. Float.nan));
  checkb "to_string" true (String.length (C.to_string (C.make 1. 2.)) > 0)

(* --- Plant --- *)

let params ?(n = 10) () = Plant.paper_params ~n ()

let test_plant_equilibrium () =
  let p = params () in
  (* W0 = R0 C / N = 1e-4 * 833333 / 10 = 8.333 packets *)
  checkf ~eps:1e-3 "w0" 8.3333 (Plant.w0 p);
  checkf ~eps:1e-4 "alpha0" (sqrt (2. /. 8.3333)) (Plant.alpha0 p)

let test_plant_validation () =
  checkb "bad c" true
    (match Plant.params ~c:0. ~n:1 ~r0:1. ~g:0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad n" true
    (match Plant.params ~c:1. ~n:0 ~r0:1. ~g:0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad g" true
    (match Plant.params ~c:1. ~n:1 ~r0:1. ~g:1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_plant_block_dc_gains () =
  let p = params () in
  (* P_alpha(0) = 1; P_queue(0) = N. *)
  checkb "p_alpha dc" true (close ~eps:1e-12 (Plant.p_alpha p C.zero) C.one);
  checkb "p_queue dc" true
    (close ~eps:1e-9 (Plant.p_queue p C.zero) (C.re 10.))

(* Eq. 17 says the assembled product equals the closed-form rational
   function; verify on a grid of frequencies. *)
let test_plant_eq17_identity () =
  let p = params () in
  let closed_form s =
    let open C in
    let r0 = 1e-4 and g = 1. /. 16. in
    let c = 10e9 /. (1500. *. 8.) and nf = 10. in
    let num =
      scale
        (sqrt (c /. (2. *. nf *. r0)) *. nf /. r0)
        (re (2. *. g /. r0) +: s)
    in
    let den =
      (s +: re (g /. r0))
      *: (s +: re (nf /. (r0 *. r0 *. c)))
      *: (s +: re (1. /. r0))
    in
    num /: den
  in
  List.iter
    (fun w ->
      let s = C.im w in
      let got = Plant.p p s in
      let want = closed_form s in
      checkb
        (Printf.sprintf "identity at w=%g" w)
        true
        (C.dist got want /. (1. +. C.modulus want) < 1e-9))
    [ 1.; 100.; 1e4; 1e5; 1e6 ]

let test_plant_delay_factor () =
  let p = params () in
  (* |G(jw)| = |P(jw)| (the delay is a pure rotation). *)
  let w = 12345. in
  checkf ~eps:1e-9 "modulus preserved"
    (C.modulus (Plant.p p (C.im w)))
    (C.modulus (Plant.g_jw p w));
  (* arg difference = -w R0 (mod 2pi) *)
  let d = Complex.arg (Plant.g_jw p w) -. Complex.arg (Plant.p p (C.im w)) in
  let d = Float.rem (d +. (4. *. Float.pi)) (2. *. Float.pi) in
  let want = Float.rem ((-.w *. 1e-4) +. (4. *. Float.pi)) (2. *. Float.pi) in
  checkf ~eps:1e-9 "delay rotation" want d

(* --- Df: closed forms --- *)

let test_relay_below_threshold () =
  checkb "zero below K" true (close (Df.relay ~k:40. ~x:30.) C.zero)

let test_relay_known_value () =
  (* X = K sqrt(2): N = 2/(pi X) * sqrt(1/2) *)
  let k = 40. in
  let x = k *. sqrt 2. in
  let expected = 2. /. (Float.pi *. x) *. sqrt 0.5 in
  checkb "value" true (close ~eps:1e-12 (Df.relay ~k ~x) (C.re expected))

let test_relay_relative_max () =
  (* N0_dc peaks at 1/pi at X = K sqrt 2 *)
  let k = 40. in
  let at_peak = (Df.relay_relative ~k ~x:(k *. sqrt 2.)).C.re in
  checkf ~eps:1e-12 "peak value" (1. /. Float.pi) at_peak;
  (* and it is indeed a maximum *)
  checkb "smaller nearby" true
    ((Df.relay_relative ~k ~x:(k *. 1.2)).C.re < at_peak);
  checkb "smaller nearby 2" true
    ((Df.relay_relative ~k ~x:(k *. 2.)).C.re < at_peak)

let test_hysteresis_below_k1 () =
  checkb "zero below K1" true
    (close (Df.hysteresis ~k1:30. ~k2:50. ~x:20.) C.zero)

let test_hysteresis_band_is_relay_at_k1 () =
  (* For K1 <= X < K2 the implemented mechanism is a relay at K1. *)
  checkb "piecewise relay" true
    (close ~eps:1e-12
       (Df.hysteresis ~k1:30. ~k2:50. ~x:40.)
       (Df.relay ~k:30. ~x:40.))

let test_hysteresis_formula () =
  (* Eq. 27 at a hand-computed point: K1=30, K2=50, X=50. *)
  let k1 = 30. and k2 = 50. and x = 50. in
  let b1 = (sqrt (1. -. 0.36) +. 0.) /. Float.pi in
  let a1 = (k2 -. k1) /. (Float.pi *. x) in
  checkb "matches Eq. 27" true
    (close ~eps:1e-12
       (Df.hysteresis ~k1 ~k2 ~x)
       (C.make (b1 /. x) (a1 /. x)))

let test_hysteresis_imag_positive () =
  List.iter
    (fun x ->
      checkb "phase lead" true ((Df.hysteresis ~k1:30. ~k2:50. ~x).C.im > 0.))
    [ 51.; 60.; 100.; 500. ]

let test_hysteresis_equal_thresholds_is_relay () =
  List.iter
    (fun x ->
      checkb "degenerates" true
        (close ~eps:1e-12 (Df.hysteresis ~k1:40. ~k2:40. ~x) (Df.relay ~k:40. ~x)))
    [ 45.; 60.; 100. ]

let test_neg_recip () =
  let n = C.make 0.2 0.1 in
  let z = Df.neg_recip n in
  checkb "n * (-1/n) = -1" true (close ~eps:1e-12 (C.( *: ) n z) (C.re (-1.)));
  checkb "zero maps to non-finite" true
    (not (C.is_finite (Df.neg_recip C.zero)))

(* --- Df: closed forms vs numeric Fourier integration --- *)

let qtest = QCheck_alcotest.to_alcotest

let prop_relay_df_matches_fourier =
  QCheck.Test.make ~count:100
    ~name:"relay DF equals numeric Fourier of its indicator"
    QCheck.(pair (float_range 1. 100.) (float_range 1.01 10.))
    (fun (k, ratio) ->
      let x = k *. ratio in
      let closed = Df.relay ~k ~x in
      let numeric =
        Df.fundamental_of_indicator
          (fun theta -> Df.relay_indicator ~k ~x ~theta)
          ~x ~n:20000
      in
      C.dist closed numeric < 1e-3 /. x *. 10.)

let prop_hysteresis_df_matches_fourier =
  QCheck.Test.make ~count:100
    ~name:"hysteresis DF equals numeric Fourier of its indicator"
    QCheck.(
      triple (float_range 1. 50.) (float_range 1.0 2.0) (float_range 1.01 8.))
    (fun (k1, spread, ratio) ->
      let k2 = k1 *. spread in
      let x = k2 *. ratio in
      let closed = Df.hysteresis ~k1 ~k2 ~x in
      let numeric =
        Df.fundamental_of_indicator
          (fun theta -> Df.hysteresis_indicator ~k1 ~k2 ~x ~theta)
          ~x ~n:20000
      in
      C.dist closed numeric < 1e-3 /. x *. 10.)

(* The implemented switch policy (Dctcp.Marking_policies) driven over a
   sinusoidal occupancy has the DF of Eq. 27: an end-to-end bridge between
   the code that runs in the simulator and the paper's analysis. *)
let df_of_policy ~k1_pkts ~k2_pkts ~x_pkts ~n =
  let scale_bytes = 1500. in
  let policy =
    Dctcp.Marking_policies.double_threshold
      ~k1_bytes:(int_of_float (k1_pkts *. scale_bytes))
      ~k2_bytes:(int_of_float (k2_pkts *. scale_bytes))
      ()
  in
  let occupancy theta =
    (* Offset so the sine is non-negative: the policy sees bytes. The DF
       thresholds shift with the offset; use offset 0 and clamp at 0. *)
    Float.max 0. (x_pkts *. sin theta *. scale_bytes)
  in
  let prev = ref 0. in
  let indicator = Array.make n false in
  (* Two warm-up periods to settle the hysteresis state, then measure. *)
  for cycle = 0 to 2 do
    for i = 0 to n - 1 do
      let theta = 2. *. Float.pi *. float_of_int i /. float_of_int n in
      let occ = occupancy theta in
      let bytes = int_of_float occ in
      let packets = int_of_float (occ /. scale_bytes) in
      let mark =
        if occ >= !prev then policy.Net.Marking.on_enqueue ~bytes ~packets
        else begin
          policy.Net.Marking.on_dequeue ~bytes ~packets;
          (* query state without a crossing *)
          policy.Net.Marking.on_enqueue ~bytes ~packets
        end
      in
      prev := occ;
      if cycle = 2 then indicator.(i) <- mark
    done
  done;
  let h = 2. *. Float.pi /. float_of_int n in
  let a1 = ref 0. and b1 = ref 0. in
  Array.iteri
    (fun i m ->
      if m then begin
        let theta = (float_of_int i +. 0.5) *. h in
        a1 := !a1 +. (cos theta *. h);
        b1 := !b1 +. (sin theta *. h)
      end)
    indicator;
  C.make (!b1 /. Float.pi /. x_pkts) (!a1 /. Float.pi /. x_pkts)

let test_policy_df_matches_eq27 () =
  let k1 = 30. and k2 = 50. and x = 80. in
  let from_policy = df_of_policy ~k1_pkts:k1 ~k2_pkts:k2 ~x_pkts:x ~n:40000 in
  let closed = Df.hysteresis ~k1 ~k2 ~x in
  checkb
    (Printf.sprintf "policy DF %s ~ closed form %s" (C.to_string from_policy)
       (C.to_string closed))
    true
    (C.dist from_policy closed < 0.15 *. C.modulus closed)

(* --- Nyquist --- *)

let test_spaces () =
  let ls = Ny.log_space ~lo:1. ~hi:100. ~n:3 in
  checkf ~eps:1e-9 "log mid" 10. ls.(1);
  checkb "bad log range raises" true
    (match Ny.log_space ~lo:0. ~hi:1. ~n:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_segment_intersection_cases () =
  let p a b = C.make a b in
  (* crossing diagonals of the unit square *)
  (match Ny.segment_intersection (p 0. 0.) (p 1. 1.) (p 0. 1.) (p 1. 0.) with
  | Some (z, t, u) ->
      checkb "midpoint" true (close ~eps:1e-12 z (p 0.5 0.5));
      checkf ~eps:1e-12 "t" 0.5 t;
      checkf ~eps:1e-12 "u" 0.5 u
  | None -> Alcotest.fail "expected intersection");
  (* parallel *)
  checkb "parallel" true
    (Ny.segment_intersection (p 0. 0.) (p 1. 0.) (p 0. 1.) (p 1. 1.) = None);
  (* disjoint *)
  checkb "disjoint" true
    (Ny.segment_intersection (p 0. 0.) (p 1. 1.) (p 2. 0.) (p 3. 1.) = None);
  (* touching endpoints counts *)
  checkb "endpoint touch" true
    (Ny.segment_intersection (p 0. 0.) (p 1. 1.) (p 1. 1.) (p 2. 0.) <> None)

let test_polyline_intersections () =
  (* A sine-ish polyline against the x axis segment. *)
  let curve_a =
    Array.init 100 (fun i ->
        let x = float_of_int i /. 10. in
        { Ny.param = x; z = C.make x (sin x) })
  in
  let curve_b =
    [| { Ny.param = 0.; z = C.make 0. 0. }; { Ny.param = 1.; z = C.make 10. 0. } |]
  in
  let crossings = Ny.intersections curve_a curve_b in
  (* sin crosses zero at 0, pi, 2pi, 3pi within [0, 9.9] *)
  checkb "about four crossings" true (List.length crossings >= 3);
  match crossings with
  | _ :: second :: _ ->
      checkb "near pi" true (Float.abs (second.Ny.param_a -. Float.pi) < 0.2)
  | _ -> Alcotest.fail "expected crossings"

let test_real_axis_crossings () =
  let curve =
    Array.init 5 (fun i ->
        let x = float_of_int i in
        (* imag: +1, -1, +1, -1, +1 -> four crossings *)
        { Ny.param = x; z = C.make x (if i mod 2 = 0 then 1. else -1.) })
  in
  let c = Ny.real_axis_crossings curve in
  checki "four crossings" 4 (List.length c);
  let x0, re0 = List.hd c in
  checkf "interpolated param" 0.5 x0;
  checkf "interpolated re" 0.5 re0

let test_plant_locus_tags_params () =
  let p = params () in
  let w = [| 1e3; 1e4 |] in
  let locus = Ny.plant_locus p ~k0:1. ~w in
  checki "two points" 2 (Array.length locus);
  checkf "param kept" 1e3 locus.(0).Ny.param

let test_df_loci_skip_zero () =
  (* Amplitudes below threshold produce a zero DF and must be skipped. *)
  let locus =
    Ny.hysteresis_neg_recip_locus ~k1:40. ~k2:40. ~x:[| 10.; 20.; 80. |]
  in
  checki "only one valid point" 1 (Array.length locus);
  checkb "finite" true (C.is_finite locus.(0).Ny.z)

(* --- Stability --- *)

let coarse =
  { St.default_grids with St.w_points = 800; x_points = 400 }

let test_paper_params_stable () =
  (* With the paper's stated parameters the printed G never reaches the DF
     loci (documented in EXPERIMENTS.md): both theorems report stability
     for all N in the paper's sweep. *)
  List.iter
    (fun n ->
      let p = params ~n () in
      checkb "dctcp stable" true (St.dctcp ~grids:coarse p ~k:40. = St.Stable);
      checkb "dt stable" true
        (St.dt_dctcp ~grids:coarse p ~k1:30. ~k2:50. = St.Stable))
    [ 10; 60; 100 ]

let test_margins_ordering () =
  (* DT-DCTCP's DF locus lies strictly above the real axis, so its gain
     margin exceeds DCTCP's at every N — the quantitative form of the
     paper's Section V-D conclusion. *)
  List.iter
    (fun n ->
      let p = params ~n () in
      let mdc = St.dctcp_margin ~grids:coarse p ~k:40. in
      let mdt = St.dt_dctcp_margin ~grids:coarse p ~k1:30. ~k2:50. in
      checkb
        (Printf.sprintf "margin order at N=%d (%.3f < %.3f)" n mdc mdt)
        true (mdc < mdt))
    [ 10; 40; 60; 100 ]

let test_dctcp_margin_minimized_near_60 () =
  let margin n = St.dctcp_margin ~grids:coarse (params ~n ()) ~k:40. in
  let m40 = margin 40 and m60 = margin 60 and m150 = margin 150 in
  checkb "dip vs small N" true (m60 < margin 10);
  checkb "dip vs large N" true (m60 < m150);
  checkb "plateau near the dip" true (Float.abs (m40 -. m60) < 0.5)

let test_long_rtt_oscillates_in_order () =
  (* With R0 = 1 ms the loci do intersect; DCTCP goes unstable at smaller N
     than DT-DCTCP (the paper's Figure 9 ordering). *)
  let c = 10e9 /. 12000. and g = 1. /. 16. and r0 = 1e-3 in
  let dc =
    St.critical_n ~c ~r0 ~g ~n_max:150
      ~verdict_at:(fun p -> St.dctcp ~grids:coarse p ~k:40.)
      ()
  in
  let dt =
    St.critical_n ~c ~r0 ~g ~n_max:150
      ~verdict_at:(fun p -> St.dt_dctcp ~grids:coarse p ~k1:30. ~k2:50.)
      ()
  in
  match (dc, dt) with
  | Some ndc, Some ndt ->
      checkb
        (Printf.sprintf "dctcp (%d) before dt (%d)" ndc ndt)
        true (ndc < ndt)
  | Some ndc, None ->
      checkb (Printf.sprintf "dctcp unstable at %d, dt never" ndc) true true
  | None, _ -> Alcotest.fail "expected DCTCP to go unstable at R0=1ms"

let test_limit_cycle_amplitude_exceeds_threshold () =
  let c = 10e9 /. 12000. and g = 1. /. 16. and r0 = 1e-3 in
  let p = Plant.params ~c ~n:100 ~r0 ~g in
  (match St.dctcp ~grids:coarse p ~k:40. with
  | St.Oscillatory { amplitude; omega } ->
      checkb "amplitude >= K" true (amplitude >= 40.);
      checkb "frequency positive" true (omega > 0.)
  | St.Stable -> Alcotest.fail "expected oscillation");
  match St.dt_dctcp ~grids:coarse p ~k1:30. ~k2:50. with
  | St.Oscillatory { amplitude; omega } ->
      checkb "dt amplitude >= K2" true (amplitude >= 50.);
      checkb "dt frequency positive" true (omega > 0.)
  | St.Stable -> Alcotest.fail "expected dt oscillation at N=100, R0=1ms"

let test_stability_validation () =
  let p = params () in
  checkb "bad k" true
    (match St.dctcp p ~k:0. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad thresholds" true
    (match St.dt_dctcp p ~k1:50. ~k2:30. with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_pp_verdict () =
  let s = Format.asprintf "%a" St.pp_verdict St.Stable in
  Alcotest.check Alcotest.string "stable" "stable" s;
  let s2 =
    Format.asprintf "%a" St.pp_verdict
      (St.Oscillatory { amplitude = 50.; omega = 1000. })
  in
  checkb "oscillatory mentions X" true (String.length s2 > 10)

let suites =
  [
    ( "control.cplx",
      [
        Alcotest.test_case "arithmetic" `Quick test_cplx_arith;
        Alcotest.test_case "polar" `Quick test_cplx_polar;
        Alcotest.test_case "euler" `Quick test_cplx_exp;
        Alcotest.test_case "misc" `Quick test_cplx_misc;
      ] );
    ( "control.plant",
      [
        Alcotest.test_case "equilibrium" `Quick test_plant_equilibrium;
        Alcotest.test_case "validation" `Quick test_plant_validation;
        Alcotest.test_case "block dc gains" `Quick test_plant_block_dc_gains;
        Alcotest.test_case "Eq.17 identity" `Quick test_plant_eq17_identity;
        Alcotest.test_case "delay factor" `Quick test_plant_delay_factor;
      ] );
    ( "control.df",
      [
        Alcotest.test_case "relay below threshold" `Quick
          test_relay_below_threshold;
        Alcotest.test_case "relay known value" `Quick test_relay_known_value;
        Alcotest.test_case "relative relay max = 1/pi" `Quick
          test_relay_relative_max;
        Alcotest.test_case "hysteresis below K1" `Quick
          test_hysteresis_below_k1;
        Alcotest.test_case "band is relay at K1" `Quick
          test_hysteresis_band_is_relay_at_k1;
        Alcotest.test_case "Eq.27 hand value" `Quick test_hysteresis_formula;
        Alcotest.test_case "phase lead (Im > 0)" `Quick
          test_hysteresis_imag_positive;
        Alcotest.test_case "K1=K2 degenerates to relay" `Quick
          test_hysteresis_equal_thresholds_is_relay;
        Alcotest.test_case "neg_recip" `Quick test_neg_recip;
        qtest prop_relay_df_matches_fourier;
        qtest prop_hysteresis_df_matches_fourier;
        Alcotest.test_case "implemented policy has Eq.27 DF" `Slow
          test_policy_df_matches_eq27;
      ] );
    ( "control.nyquist",
      [
        Alcotest.test_case "spaces" `Quick test_spaces;
        Alcotest.test_case "segment intersection" `Quick
          test_segment_intersection_cases;
        Alcotest.test_case "polyline intersections" `Quick
          test_polyline_intersections;
        Alcotest.test_case "real axis crossings" `Quick
          test_real_axis_crossings;
        Alcotest.test_case "plant locus params" `Quick
          test_plant_locus_tags_params;
        Alcotest.test_case "df loci skip zero" `Quick test_df_loci_skip_zero;
      ] );
    ( "control.stability",
      [
        Alcotest.test_case "paper params stable" `Slow test_paper_params_stable;
        Alcotest.test_case "margin ordering dt > dctcp" `Slow
          test_margins_ordering;
        Alcotest.test_case "dctcp margin dips near N=60" `Slow
          test_dctcp_margin_minimized_near_60;
        Alcotest.test_case "long-RTT instability ordering" `Slow
          test_long_rtt_oscillates_in_order;
        Alcotest.test_case "limit cycle amplitude" `Slow
          test_limit_cycle_amplitude_exceeds_threshold;
        Alcotest.test_case "validation" `Quick test_stability_validation;
        Alcotest.test_case "verdict printing" `Quick test_pp_verdict;
      ] );
  ]
