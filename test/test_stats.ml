(* Tests for descriptive stats, percentiles, tables and plots. *)

module D = Stats.Descriptive
module P = Stats.Percentile

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

(* --- FCT slowdown --- *)

let test_fct_slowdown () =
  checkf "plain ratio" 2.5
    (Stats.Fct.slowdown ~ideal_ns:1_000L ~actual_ns:2_500L);
  checkf "faster than ideal clamps to 1" 1.0
    (Stats.Fct.slowdown ~ideal_ns:1_000L ~actual_ns:500L);
  checkf "zero actual clamps to 1" 1.0
    (Stats.Fct.slowdown ~ideal_ns:1_000L ~actual_ns:0L)

let test_fct_slowdown_validation () =
  checkb "zero ideal raises" true
    (match Stats.Fct.slowdown ~ideal_ns:0L ~actual_ns:1L with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "negative actual raises" true
    (match Stats.Fct.slowdown ~ideal_ns:1L ~actual_ns:(-1L) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Hand-computed against Percentile.of_sorted's linear interpolation:
   rank = p/100 x (n-1) over the sorted copy. *)
let test_fct_summarize () =
  let s = Stats.Fct.summarize [| 5.; 1.; 4.; 2.; 3. |] in
  checki "count" 5 s.Stats.Fct.count;
  checkf "p50: rank 2" 3.0 s.Stats.Fct.p50;
  checkf "p95: rank 3.8" 4.8 s.Stats.Fct.p95;
  checkf ~eps:1e-9 "p99: rank 3.96" 4.96 s.Stats.Fct.p99;
  checkf ~eps:1e-9 "p99.9: rank 3.996" 4.996 s.Stats.Fct.p999;
  checkf "mean" 3.0 s.Stats.Fct.mean;
  checkf "max" 5.0 s.Stats.Fct.max;
  let s11 = Stats.Fct.summarize (Array.init 11 (fun i -> float_of_int (i + 1))) in
  checkf "11 pts p50" 6.0 s11.Stats.Fct.p50;
  checkf "11 pts p95: rank 9.5" 10.5 s11.Stats.Fct.p95;
  checkf ~eps:1e-9 "11 pts p99: rank 9.9" 10.9 s11.Stats.Fct.p99;
  checkf ~eps:1e-9 "11 pts p99.9: rank 9.99" 10.99 s11.Stats.Fct.p999;
  checkb "empty raises" true
    (match Stats.Fct.summarize [||] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fct_summarize_pure () =
  let arr = [| 3.; 1.; 2. |] in
  ignore (Stats.Fct.summarize arr);
  checkb "input not sorted in place" true (arr = [| 3.; 1.; 2. |])

(* --- Descriptive --- *)

let test_desc_empty () =
  let d = D.create () in
  checkf "mean" 0. (D.mean d);
  checkf "stddev" 0. (D.stddev d);
  checkb "min raises" true
    (match D.min d with exception Invalid_argument _ -> true | _ -> false)

let test_desc_known () =
  let d = D.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  checkf "mean" 5. (D.mean d);
  checkf "population stddev" 2. (D.stddev d);
  checkf "min" 2. (D.min d);
  checkf "max" 9. (D.max d)

let test_desc_single () =
  let d = D.of_array [| 3.5 |] in
  checkf "mean" 3.5 (D.mean d);
  checkf "stddev" 0. (D.stddev d)

let prop_desc_matches_naive =
  QCheck.Test.make ~count:300 ~name:"welford matches naive mean/variance"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
    (fun l ->
      let d = D.of_array (Array.of_list l) in
      let n = float_of_int (List.length l) in
      let mean = List.fold_left ( +. ) 0. l /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. l /. n
      in
      Float.abs (D.mean d -. mean) < 1e-6 *. (1. +. Float.abs mean)
      && Float.abs ((D.stddev d ** 2.) -. var) < 1e-5 *. (1. +. var))

(* --- Percentile --- *)

let test_percentile_known () =
  let arr = [| 1.; 2.; 3.; 4.; 5. |] in
  checkf "p0" 1. (P.of_array arr 0.);
  checkf "p50" 3. (P.of_array arr 50.);
  checkf "p100" 5. (P.of_array arr 100.);
  checkf "p25" 2. (P.of_array arr 25.);
  checkf "p10 interpolates" 1.4 (P.of_array arr 10.)

let test_percentile_unsorted_input () =
  checkf "median of shuffled" 3. (P.of_array [| 5.; 1.; 3.; 2.; 4. |] 50.)

let test_percentile_single () =
  checkf "single" 7. (P.of_array [| 7. |] 99.)

let test_percentile_errors () =
  checkb "empty raises" true
    (match P.of_array [||] 50. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "p>100 raises" true
    (match P.of_array [| 1. |] 101. with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_percentile_summary () =
  let s = P.summary [| 1.; 2.; 3.; 4. |] in
  checki "seven entries" 7 (List.length s);
  checkf "min entry" 1. (List.assoc "min" s);
  checkf "max entry" 4. (List.assoc "max" s)

let prop_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentiles are monotone in p"
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0. 100.))
    (fun l ->
      let arr = Array.of_list l in
      let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ] in
      let vals = List.map (P.of_array arr) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vals)

(* --- Table --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let render_table t =
  let buf_name = Filename.temp_file "table" ".txt" in
  let oc = open_out buf_name in
  Stats.Table.print ~oc t;
  close_out oc;
  let ic = open_in buf_name in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove buf_name;
  s

let test_table_renders () =
  let t =
    Stats.Table.create ~title:"demo"
      ~columns:[ Stats.Table.column ~align:Stats.Table.Left "name";
                 Stats.Table.column "value" ]
  in
  Stats.Table.add_row t [ "alpha"; "1.5" ];
  Stats.Table.add_row t (List.map (Stats.Table.fmt_f 2) [ 3.14159; 2.71828 ]);
  let s = render_table t in
  checkb "has title" true
    (contains s "== demo ==");
  checkb "has row" true (contains s "alpha");
  checkb "has formatted float" true (contains s "3.14")

let test_table_width_mismatch () =
  let t = Stats.Table.create ~title:"t" ~columns:[ Stats.Table.column "a" ] in
  checkb "row mismatch raises" true
    (match Stats.Table.add_row t [ "1"; "2" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_table_fmt () =
  Alcotest.check Alcotest.string "fmt_f" "3.14" (Stats.Table.fmt_f 2 3.14159)

(* --- Ascii_plot --- *)

let test_plot_renders () =
  let s =
    Stats.Ascii_plot.render
      ~series:[ ("queue", Array.init 100 (fun i -> sin (float_of_int i /. 5.))) ]
      ()
  in
  checkb "non-empty" true (String.length s > 100);
  checkb "has legend" true (contains s "queue")

let test_plot_empty () =
  Alcotest.check Alcotest.string "empty plot" "(empty plot)\n"
    (Stats.Ascii_plot.render ~series:[ ("x", [||]) ] ())

let prop_percentile_extremes =
  QCheck.Test.make ~count:200 ~name:"p0 is min and p100 is max"
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-50.) 50.))
    (fun l ->
      let arr = Array.of_list l in
      let mn = List.fold_left min (List.hd l) l in
      let mx = List.fold_left max (List.hd l) l in
      Float.abs (P.of_array arr 0. -. mn) < 1e-9
      && Float.abs (P.of_array arr 100. -. mx) < 1e-9)

(* --- Spectrum --- *)

let test_fft_impulse () =
  let n = 8 in
  let input =
    Array.init n (fun i -> if i = 0 then Complex.one else Complex.zero)
  in
  let out = Stats.Spectrum.fft input in
  Array.iter
    (fun z ->
      checkf ~eps:1e-12 "flat magnitude" 1. (Complex.norm z))
    out

let test_fft_sine_bin () =
  (* sine exactly at bin 4 of a 64-point FFT -> energy only at bins 4, 60 *)
  let n = 64 in
  let input =
    Array.init n (fun i ->
        {
          Complex.re = sin (2. *. Float.pi *. 4. *. float_of_int i /. float_of_int n);
          im = 0.;
        })
  in
  let out = Stats.Spectrum.fft input in
  Array.iteri
    (fun k z ->
      let m = Complex.norm z in
      if k = 4 || k = n - 4 then checkb "peak bins" true (m > 10.)
      else checkb "quiet bins" true (m < 1e-9))
    out

let test_fft_parseval () =
  let n = 32 in
  let rng = Engine.Rng.create ~seed:5L in  (* dtlint: allow R10 *)
  let input =
    Array.init n (fun _ ->
        { Complex.re = Engine.Rng.uniform rng ~lo:(-1.) ~hi:1.; im = 0. })
  in
  let out = Stats.Spectrum.fft input in
  let e_time =
    Array.fold_left (fun a z -> a +. Complex.norm2 z) 0. input
  in
  let e_freq =
    Array.fold_left (fun a z -> a +. Complex.norm2 z) 0. out
    /. float_of_int n
  in
  checkf ~eps:1e-9 "parseval" e_time e_freq

let test_fft_invalid_length () =
  checkb "non power of two raises" true
    (match Stats.Spectrum.fft (Array.make 12 Complex.zero) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_dominant_frequency () =
  let fs = 1000. in
  let samples =
    Array.init 1000 (fun i ->
        5.
        +. (3. *. sin (2. *. Float.pi *. 70. *. float_of_int i /. fs))
        +. (0.3 *. sin (2. *. Float.pi *. 220. *. float_of_int i /. fs)))
  in
  match Stats.Spectrum.dominant_frequency ~samples ~sample_rate_hz:fs with
  | Some p ->
      checkb
        (Printf.sprintf "70 Hz found (got %.1f)" p.Stats.Spectrum.frequency_hz)
        true
        (Float.abs (p.Stats.Spectrum.frequency_hz -. 70.) < 2.);
      checkb "peak carries real power" true
        (p.Stats.Spectrum.power > 0.01 *. p.Stats.Spectrum.total_power)
  | None -> Alcotest.fail "expected a dominant frequency"

let test_dominant_frequency_flat () =
  checkb "flat has none" true
    (Stats.Spectrum.dominant_frequency ~samples:(Array.make 256 3.)
       ~sample_rate_hz:100.
    = None);
  checkb "short has none" true
    (Stats.Spectrum.dominant_frequency ~samples:(Array.make 8 0.)
       ~sample_rate_hz:100.
    = None)

(* The verdict API keeps both degenerate cases distinguishable — the
   diagnostics `dtsim analyze` surfaces instead of a silent None. *)
let test_spectrum_verdicts () =
  (match
     Stats.Spectrum.analyze ~samples:(Array.make 8 0.) ~sample_rate_hz:100.
   with
  | Stats.Spectrum.Too_short { samples; needed } ->
      checki "sample count reported" 8 samples;
      checki "threshold reported" 16 needed
  | _ -> Alcotest.fail "8 samples must be Too_short");
  (match
     Stats.Spectrum.analyze ~samples:(Array.make 256 3.) ~sample_rate_hz:100.
   with
  | Stats.Spectrum.No_variation { samples } ->
      checki "sample count reported" 256 samples
  | _ -> Alcotest.fail "constant series must be No_variation");
  let fs = 1000. in
  let sine =
    Array.init 256 (fun i -> sin (2. *. Float.pi *. 50. *. float_of_int i /. fs))
  in
  (match Stats.Spectrum.analyze ~samples:sine ~sample_rate_hz:fs with
  | Stats.Spectrum.Peak p ->
      checkb "peak at 50 Hz" true
        (Float.abs (p.Stats.Spectrum.frequency_hz -. 50.) < 4.);
      checkb "peak has no note" true
        (Stats.Spectrum.verdict_note (Stats.Spectrum.Peak p) = None)
  | v -> (
      match Stats.Spectrum.verdict_note v with
      | Some n -> Alcotest.fail ("sine did not peak: " ^ n)
      | None -> Alcotest.fail "sine did not peak"));
  (* Every no-peak verdict explains itself. *)
  List.iter
    (fun v ->
      match Stats.Spectrum.verdict_note v with
      | Some note -> checkb "note is not empty" true (String.length note > 0)
      | None -> Alcotest.fail "degenerate verdict without a note")
    [
      Stats.Spectrum.Too_short { samples = 3; needed = 16 };
      Stats.Spectrum.No_variation { samples = 99 };
    ]

(* --- Fairness --- *)

let test_jain_known () =
  checkf "equal shares" 1. (Stats.Fairness.jain [| 5.; 5.; 5.; 5. |]);
  checkf "one hog of four" 0.25 (Stats.Fairness.jain [| 8.; 0.; 0.; 0. |]);
  (* J([1;2;3]) = 36 / (3 * 14) *)
  checkf "mixed shares" (36. /. 42.) (Stats.Fairness.jain [| 1.; 2.; 3. |]);
  checkf "single flow" 1. (Stats.Fairness.jain [| 7. |]);
  checkf "empty is fair" 1. (Stats.Fairness.jain [||]);
  checkf "all-zero is fair" 1. (Stats.Fairness.jain [| 0.; 0. |])

let test_goodput () =
  (* 100 segments of 1500 B over 1 s = 1.2 Mbit/s. *)
  checkf "known rate" 1.2e6
    (Stats.Fairness.goodput_bps ~segments:100 ~segment_bytes:1500 ~window_s:1.);
  checkb "zero window rejected" true
    (match
       Stats.Fairness.goodput_bps ~segments:1 ~segment_bytes:1500 ~window_s:0.
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_jain_bounds =
  QCheck.Test.make ~name:"jain index stays in (0, 1]" ~count:200
    QCheck.(array_of_size Gen.(1 -- 20) (float_bound_exclusive 1000.))
    (fun xs ->
      let xs = Array.map Float.abs xs in
      let j = Stats.Fairness.jain xs in
      j > 0. && j <= 1. +. 1e-12)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "stats.descriptive",
      [
        Alcotest.test_case "empty accumulator" `Quick test_desc_empty;
        Alcotest.test_case "known values" `Quick test_desc_known;
        Alcotest.test_case "single value" `Quick test_desc_single;
        qtest prop_desc_matches_naive;
      ] );
    ( "stats.percentile",
      [
        Alcotest.test_case "known percentiles" `Quick test_percentile_known;
        Alcotest.test_case "unsorted input" `Quick test_percentile_unsorted_input;
        Alcotest.test_case "single element" `Quick test_percentile_single;
        Alcotest.test_case "errors" `Quick test_percentile_errors;
        Alcotest.test_case "summary" `Quick test_percentile_summary;
        qtest prop_percentile_monotone;
        qtest prop_percentile_extremes;
      ] );
    ( "stats.fairness",
      [
        Alcotest.test_case "jain known values" `Quick test_jain_known;
        Alcotest.test_case "goodput" `Quick test_goodput;
        qtest prop_jain_bounds;
      ] );
    ( "stats.table",
      [
        Alcotest.test_case "renders" `Quick test_table_renders;
        Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        Alcotest.test_case "formatters" `Quick test_table_fmt;
      ] );
    ( "stats.ascii_plot",
      [
        Alcotest.test_case "renders" `Quick test_plot_renders;
        Alcotest.test_case "empty series" `Quick test_plot_empty;
      ] );
    ( "stats.fct",
      [
        Alcotest.test_case "slowdown ratio and clamp" `Quick
          test_fct_slowdown;
        Alcotest.test_case "slowdown validation" `Quick
          test_fct_slowdown_validation;
        Alcotest.test_case "summarize vs hand-computed" `Quick
          test_fct_summarize;
        Alcotest.test_case "summarize leaves input alone" `Quick
          test_fct_summarize_pure;
      ] );
    ( "stats.spectrum",
      [
        Alcotest.test_case "impulse is flat" `Quick test_fft_impulse;
        Alcotest.test_case "sine concentrates in its bin" `Quick
          test_fft_sine_bin;
        Alcotest.test_case "parseval" `Quick test_fft_parseval;
        Alcotest.test_case "length validation" `Quick test_fft_invalid_length;
        Alcotest.test_case "dominant frequency" `Quick test_dominant_frequency;
        Alcotest.test_case "degenerate inputs" `Quick
          test_dominant_frequency_flat;
        Alcotest.test_case "verdict diagnostics" `Quick test_spectrum_verdicts;
      ] );
  ]
