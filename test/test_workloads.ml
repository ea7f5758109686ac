(* Tests for the experiment runners. Configurations are scaled down (lower
   rates, shorter windows, few repeats) so `dune runtest` stays fast; the
   full paper-scale sweeps live in bench/. *)

module Time = Engine.Time
module D = Workloads.Dumbbell
module F = Workloads.Fanin

let bare = Workloads.Workload.bare

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

let small_longlived =
  {
    D.longlived with
    D.n_flows = 4;
    warmup = Time.span_of_ms 30.;
    measure = Time.span_of_ms 50.;
  }

let longlived_link =
  {
    (D.default_config (D.Longlived small_longlived)) with
    D.bottleneck_rate_bps = 1e9;
    buffer_bytes = 300 * 1500;
  }

let run_longlived ?(link = longlived_link) proto s =
  match D.run bare proto { link with D.schedule = D.Longlived s } with
  | D.Queue r -> r
  | D.Fct _ | D.Shares _ -> Alcotest.fail "not a Longlived result"

let dctcp_proto = Dctcp.Protocol.dctcp_pkts ~k:40 ()
let dt_proto = Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 ()

let test_longlived_utilization () =
  let r = run_longlived dctcp_proto small_longlived in
  checkb
    (Printf.sprintf "utilization %.3f > 0.9" r.D.utilization)
    true (r.D.utilization > 0.9);
  checkb "no drops on big buffer" true (r.D.drops = 0)

let test_longlived_queue_near_threshold () =
  let r = run_longlived dctcp_proto small_longlived in
  checkb
    (Printf.sprintf "mean queue %.1f pkts sane" r.D.mean_queue_pkts)
    true
    (r.D.mean_queue_pkts > 5. && r.D.mean_queue_pkts < 120.);
  checkb "std smaller than mean scale" true
    (r.D.std_queue_pkts < 2. *. r.D.mean_queue_pkts);
  checkb "max at least mean" true (r.D.max_queue_pkts >= r.D.mean_queue_pkts)

let test_longlived_alpha_and_marks () =
  let r = run_longlived dctcp_proto small_longlived in
  checkb "alpha in (0,1)" true (r.D.mean_alpha > 0. && r.D.mean_alpha < 1.);
  checkb "marking active" true (r.D.marked_fraction > 0.)

let test_longlived_fairness () =
  let r = run_longlived dctcp_proto small_longlived in
  checkb
    (Printf.sprintf "jain %.3f high" r.D.jain_fairness)
    true (r.D.jain_fairness > 0.8)

(* The sampling contract of the queue series: one sample at the warm-up
   instant, then one per period through the end of the window. *)
let test_longlived_trace () =
  let period = Time.span_of_us 100. in
  let cfg = { small_longlived with D.trace_sampling = Some period } in
  let r = run_longlived dctcp_proto cfg in
  match r.D.queue_series with
  | Some series ->
      checki "measure / period + 1 samples"
        ((Time.span_to_int_ns cfg.D.measure / Time.span_to_int_ns period) + 1)
        (Array.length series);
      let t0, _ = series.(0) in
      checkb "first sample at the warm-up instant" true
        (Float.equal t0 (Time.to_sec (Time.of_ns cfg.D.warmup)));
      checkb "times strictly increase" true
        (Array.for_all Fun.id
           (Array.init
              (Array.length series - 1)
              (fun i -> fst series.(i) < fst series.(i + 1))))
  | None -> Alcotest.fail "expected a queue series"

let test_longlived_no_trace_by_default () =
  let r = run_longlived dctcp_proto small_longlived in
  checkb "no series" true (r.D.queue_series = None)

let test_longlived_determinism () =
  let a = run_longlived dctcp_proto small_longlived in
  let b = run_longlived dctcp_proto small_longlived in
  checkf "same mean queue" a.D.mean_queue_pkts b.D.mean_queue_pkts;
  checkf "same throughput" a.D.throughput_bps b.D.throughput_bps

let test_longlived_seed_changes_details () =
  let a = run_longlived dctcp_proto small_longlived in
  let b =
    run_longlived ~link:{ longlived_link with D.seed = 2L } dctcp_proto
      small_longlived
  in
  (* different seeds stagger flows differently; exact equality would be
     suspicious *)
  checkb "different runs differ" true
    (a.D.mean_queue_pkts <> b.D.mean_queue_pkts
    || a.D.throughput_bps <> b.D.throughput_bps)

let test_longlived_dt_reduces_stddev () =
  (* The paper's Figure 11 claim at small scale: same config, DT-DCTCP
     shows no larger queue stddev than DCTCP. *)
  let cfg = { small_longlived with D.n_flows = 10 } in
  let rdc = run_longlived (Dctcp.Protocol.dctcp_pkts ~k:40 ()) cfg in
  let rdt = run_longlived (Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 ()) cfg in
  checkb
    (Printf.sprintf "std dt %.2f <= std dctcp %.2f * 1.1" rdt.D.std_queue_pkts
       rdc.D.std_queue_pkts)
    true
    (rdt.D.std_queue_pkts <= (rdc.D.std_queue_pkts *. 1.1) +. 0.5)

let test_longlived_reno_fills_buffer () =
  (* Drop-tail Reno should drive a much larger queue than DCTCP. *)
  let rdc = run_longlived dctcp_proto small_longlived in
  let rreno = run_longlived (Dctcp.Protocol.reno ()) small_longlived in
  checkb
    (Printf.sprintf "reno queue %.0f > dctcp queue %.0f" rreno.D.mean_queue_pkts
       rdc.D.mean_queue_pkts)
    true
    (rreno.D.mean_queue_pkts > rdc.D.mean_queue_pkts)

let test_longlived_validation () =
  checkb "zero flows raises" true
    (match run_longlived dctcp_proto { small_longlived with D.n_flows = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Fan-in: Incast, Completion, Deadline --- *)

let incast_proto = Dctcp.Protocol.dctcp ~k_bytes:(32 * 1024) ()

let incast cfg =
  match F.run bare incast_proto cfg with
  | F.Goodput r -> r
  | F.Completion_time _ | F.Deadlines_met _ -> Alcotest.fail "not an Incast run"

let completion cfg =
  match F.run bare incast_proto cfg with
  | F.Completion_time r -> r
  | F.Goodput _ | F.Deadlines_met _ -> Alcotest.fail "not a Completion run"

let deadlines cfg =
  match F.run bare incast_proto cfg with
  | F.Deadlines_met r -> r
  | F.Goodput _ | F.Completion_time _ -> Alcotest.fail "not a Deadline run"

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let small_incast =
  { (F.default_config F.Incast) with F.n_flows = 4; repeats = 3 }

let test_incast_small_completes () =
  let r = incast small_incast in
  checki "all repeats finish" 0 r.F.incomplete;
  (* exactly zero timeouts is the property under test *)
  checkb "no timeouts at small n" true (r.F.timeouts_per_run = 0.);  (* dtlint: allow R2 *)
  checkb
    (Printf.sprintf "goodput %.0f Mbps reasonable" (r.F.mean_goodput_bps /. 1e6))
    true
    (r.F.mean_goodput_bps > 0.3e9 && r.F.mean_goodput_bps < 1e9)

let test_incast_collapse_at_large_n () =
  let r = incast { small_incast with F.n_flows = 44 } in
  checkb "timeouts happen" true (r.F.timeouts_per_run > 0.);
  checkb
    (Printf.sprintf "goodput collapsed to %.0f Mbps" (r.F.mean_goodput_bps /. 1e6))
    true
    (r.F.mean_goodput_bps < 0.4e9)

let test_incast_completion_floor () =
  (* n * 64KB at 1 Gbps sets a serialization floor on completion. *)
  let r = incast small_incast in
  let floor_s =
    float_of_int (4 * 64 * 1024 * 8) /. 1e9
  in
  checkb "above line-rate floor" true (r.F.mean_completion >= floor_s *. 0.9);
  checkb "min <= mean <= max" true
    (r.F.min_goodput_bps <= r.F.mean_goodput_bps
    && r.F.mean_goodput_bps <= r.F.max_goodput_bps)

let test_incast_goodput_of_completion () =
  let g = F.goodput_of_completion small_incast 1. in
  checkf "bytes over time" (float_of_int (4 * 64 * 1024 * 8)) g;
  checkf "zero time" 0. (F.goodput_of_completion small_incast 0.)

let test_incast_determinism () =
  let a = incast small_incast in
  let b = incast small_incast in
  checkf "same goodput" a.F.mean_goodput_bps b.F.mean_goodput_bps

let test_incast_validation () =
  checkb "zero flows raises" true
    (raises_invalid (fun () -> incast { small_incast with F.n_flows = 0 }));
  checkb "zero repeats raises" true
    (raises_invalid (fun () -> incast { small_incast with F.repeats = 0 }))

let small_completion =
  { (F.default_config F.Completion) with F.n_flows = 4; repeats = 3 }

let test_completion_floor () =
  let r = completion small_completion in
  (* 1 MB at 1 Gbps is ~8.4 ms serialization. *)
  checkb
    (Printf.sprintf "mean %.2f ms above floor" (r.F.mean_completion_s *. 1e3))
    true
    (r.F.mean_completion_s > 8e-3 && r.F.mean_completion_s < 50e-3);
  checki "complete" 0 r.F.incomplete;
  checkb "min <= mean <= max" true
    (r.F.min_completion_s <= r.F.mean_completion_s
    && r.F.mean_completion_s <= r.F.max_completion_s)

let test_completion_incast_spike () =
  let r = completion { small_completion with F.n_flows = 44 } in
  checkb
    (Printf.sprintf "timeout spike: %.1f ms" (r.F.mean_completion_s *. 1e3))
    true
    (r.F.mean_completion_s > 0.1)

let test_completion_percentiles () =
  let r = completion small_completion in
  checkb "p99 at least mean-ish" true
    (r.F.p99_completion_s >= r.F.mean_completion_s -. 1e-6);
  checkb "stddev finite" true (Float.is_finite r.F.stddev_completion_s)

let test_completion_validation () =
  checkb "zero flows raises" true
    (raises_invalid (fun () ->
         completion { small_completion with F.n_flows = 0 }))

let small_deadline =
  { (F.default_config F.Deadline) with F.n_flows = 4; repeats = 2 }

let with_deadline ?(aware = false) ?(spread = Time.span_of_ms 20.) base =
  { small_deadline with F.deadline = Some { F.base; spread; aware } }

let test_deadline_generous_all_met () =
  let r = deadlines (with_deadline (Time.span_of_sec 5.)) in
  checkf "all met" 1. r.F.met_fraction;
  checki "none incomplete" 0 r.F.incomplete;
  checkb "completion positive" true (r.F.mean_completion_s > 0.)

let test_deadline_impossible_none_met () =
  let r =
    deadlines
      (with_deadline ~spread:(Time.span_of_int_ns 0) (Time.span_of_us 1.))
  in
  checkf "none met" 0. r.F.met_fraction

let test_deadline_aware_kind_runs () =
  let r = deadlines (with_deadline ~aware:true (Time.span_of_sec 1.)) in
  checkf "d2tcp meets generous deadlines" 1. r.F.met_fraction

let test_deadline_validation () =
  checkb "zero flows raises" true
    (raises_invalid (fun () ->
         F.run bare (Dctcp.Protocol.reno ())
           { small_deadline with F.n_flows = 0 }))

(* --- Dynamic --- *)

let run_dynamic proto s =
  match D.run bare proto (D.default_config (D.Dynamic s)) with
  | D.Fct r -> r
  | D.Queue _ | D.Shares _ -> Alcotest.fail "not a Dynamic result"

let small_dynamic =
  {
    D.dynamic with
    D.duration = Time.span_of_ms 30.;
    warmup = Time.span_of_ms 20.;
    drain = Time.span_of_ms 50.;
    arrival_rate = 2000.;
  }

let test_dynamic_completes_short_flows () =
  let r = run_dynamic dctcp_proto small_dynamic in
  checkb "short flows arrived" true (r.D.short_flows_started > 20);
  checki "all completed" r.D.short_flows_started r.D.short_flows_completed;
  checkb "fct positive" true (r.D.fct_p50_s > 0.);
  checkb "p99 >= p50" true (r.D.fct_p99_s >= r.D.fct_p50_s);
  checkb "background kept running" true
    (r.D.background_throughput_bps > 1e9)

let test_dynamic_reno_inflates_fct () =
  (* Reno needs ~50 ms of additive increase before its standing queue is
     in place; give the comparison a long warmup. *)
  let cfg = { small_dynamic with D.warmup = Time.span_of_ms 120. } in
  let rdc = run_dynamic dctcp_proto cfg in
  let rreno = run_dynamic (Dctcp.Protocol.reno ()) cfg in
  checkb
    (Printf.sprintf "reno p50 %.0fus > dctcp p50 %.0fus"
       (rreno.D.fct_p50_s *. 1e6) (rdc.D.fct_p50_s *. 1e6))
    true
    (rreno.D.fct_p50_s > rdc.D.fct_p50_s);
  checkb "reno queue bigger" true
    (rreno.D.mean_queue_pkts > rdc.D.mean_queue_pkts)

let test_dynamic_determinism () =
  let a = run_dynamic dctcp_proto small_dynamic in
  let b = run_dynamic dctcp_proto small_dynamic in
  checki "same arrivals" a.D.short_flows_started b.D.short_flows_started;
  checkf "same p99" a.D.fct_p99_s b.D.fct_p99_s

let test_dynamic_validation () =
  checkb "bad arrival rate raises" true
    (match
       run_dynamic dctcp_proto { small_dynamic with D.arrival_rate = 0. }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Convergence --- *)

let run_convergence proto s =
  match D.run bare proto (D.default_config (D.Convergence s)) with
  | D.Shares r -> r
  | D.Queue _ | D.Fct _ -> Alcotest.fail "not a Convergence result"

let small_convergence =
  {
    D.convergence with
    D.n_flows = 3;
    join_interval = Time.span_of_ms 60.;
    hold = Time.span_of_ms 60.;
    sample_window = Time.span_of_ms 5.;
  }

let test_convergence_shapes () =
  let r = run_convergence dctcp_proto small_convergence in
  checkb "windows recorded" true (Array.length r.D.shares > 10);
  checki "per-flow columns" 3 (Array.length r.D.shares.(0));
  checkf ~eps:1e-9 "window width" 5e-3 r.D.window_s

let test_convergence_fair_and_utilized () =
  let r = run_convergence dctcp_proto small_convergence in
  checkb
    (Printf.sprintf "jain %.3f" r.D.jain_steady)
    true (r.D.jain_steady > 0.85);
  checkb
    (Printf.sprintf "utilization %.3f" r.D.utilization_steady)
    true (r.D.utilization_steady > 0.9)

let test_convergence_times_finite () =
  let r = run_convergence dctcp_proto small_convergence in
  Array.iteri
    (fun i t ->
      checkb (Printf.sprintf "flow %d converged" i) true (not (Float.is_nan t));
      checkb "non-negative" true (t >= 0.))
    r.D.convergence_times_s

let test_convergence_staircase () =
  (* While only flow 0 is active it should hold (nearly) the whole link. *)
  let r = run_convergence dctcp_proto small_convergence in
  (* windows 4-10 fall inside flow 0's solo period after slow start *)
  let solo = r.D.shares.(8).(0) in
  checkb
    (Printf.sprintf "solo share %.0f Mbps" (solo /. 1e6))
    true
    (solo > 0.8e9);
  checkf "others idle" 0. r.D.shares.(8).(2)

let test_convergence_validation () =
  checkb "zero flows raises" true
    (match
       run_convergence dctcp_proto { small_convergence with D.n_flows = 0 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Fattree --- *)

module Ft = Workloads.Fattree

let small_fattree =
  {
    Ft.default_config with
    Ft.k = 4;
    incast_fanin = 4;
    incast_bytes = 16 * 1024;
    long_flows = 2;
    long_bytes = 32 * 1024;
    time_cap = Time.span_of_ms 500.;
  }

let test_fattree_completes () =
  let r = Ft.run bare dctcp_proto small_fattree in
  (* k=4: 8 racks x 4 incast senders + 2 long flows. *)
  checki "flow count" 34 r.Ft.flows_total;
  checki "all complete" 0 r.Ft.incomplete;
  checki "fabric routes everything" 0 r.Ft.no_route_drops;
  checkb "slowdowns at least 1" true (r.Ft.slowdown_p50 >= 1.);
  checkb "percentiles ordered" true
    (r.Ft.slowdown_p50 <= r.Ft.slowdown_p95
    && r.Ft.slowdown_p95 <= r.Ft.slowdown_p99
    && r.Ft.slowdown_p99 <= r.Ft.slowdown_p999
    && r.Ft.slowdown_p999 <= r.Ft.slowdown_max)

let test_fattree_determinism () =
  let a = Ft.run bare dt_proto small_fattree in
  let b = Ft.run bare dt_proto small_fattree in
  checkb "bit-identical rerun" true (a = b);
  let c = Ft.run bare dt_proto { small_fattree with Ft.seed = 2L } in
  checkb "seed moves the details" true (a <> c)

let test_fattree_validation () =
  checkb "odd k raises" true
    (match Ft.run bare dctcp_proto { small_fattree with Ft.k = 5 } with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "zero fanin raises" true
    (match
       Ft.run bare dctcp_proto { small_fattree with Ft.incast_fanin = 0 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "faults rejected" true
    (match
       Ft.run
         { bare with faults = Some Fault.Plan.none }
         dctcp_proto small_fattree
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suites =
  [
    ( "workloads.longlived",
      [
        Alcotest.test_case "utilization" `Quick test_longlived_utilization;
        Alcotest.test_case "queue near threshold" `Quick
          test_longlived_queue_near_threshold;
        Alcotest.test_case "alpha and marks" `Quick test_longlived_alpha_and_marks;
        Alcotest.test_case "fairness" `Quick test_longlived_fairness;
        Alcotest.test_case "queue trace" `Quick test_longlived_trace;
        Alcotest.test_case "no trace by default" `Quick
          test_longlived_no_trace_by_default;
        Alcotest.test_case "determinism" `Quick test_longlived_determinism;
        Alcotest.test_case "seed sensitivity" `Quick
          test_longlived_seed_changes_details;
        Alcotest.test_case "dt no worse stddev" `Slow
          test_longlived_dt_reduces_stddev;
        Alcotest.test_case "reno fills buffer" `Slow
          test_longlived_reno_fills_buffer;
        Alcotest.test_case "validation" `Quick test_longlived_validation;
      ] );
    ( "workloads.incast",
      [
        Alcotest.test_case "small fan-in completes" `Quick
          test_incast_small_completes;
        Alcotest.test_case "collapse at large n" `Quick
          test_incast_collapse_at_large_n;
        Alcotest.test_case "completion floor" `Quick test_incast_completion_floor;
        Alcotest.test_case "goodput_of_completion" `Quick
          test_incast_goodput_of_completion;
        Alcotest.test_case "determinism" `Quick test_incast_determinism;
        Alcotest.test_case "validation" `Quick test_incast_validation;
      ] );
    ( "workloads.completion",
      [
        Alcotest.test_case "floor" `Quick test_completion_floor;
        Alcotest.test_case "incast spike" `Quick test_completion_incast_spike;
        Alcotest.test_case "percentiles" `Quick test_completion_percentiles;
        Alcotest.test_case "validation" `Quick test_completion_validation;
      ] );
    ( "workloads.deadline",
      [
        Alcotest.test_case "generous deadlines all met" `Quick
          test_deadline_generous_all_met;
        Alcotest.test_case "impossible deadlines none met" `Quick
          test_deadline_impossible_none_met;
        Alcotest.test_case "deadline-aware sender kind" `Quick
          test_deadline_aware_kind_runs;
        Alcotest.test_case "validation" `Quick test_deadline_validation;
      ] );
    ( "workloads.dynamic",
      [
        Alcotest.test_case "short flows complete" `Quick
          test_dynamic_completes_short_flows;
        Alcotest.test_case "reno inflates FCT" `Slow
          test_dynamic_reno_inflates_fct;
        Alcotest.test_case "determinism" `Quick test_dynamic_determinism;
        Alcotest.test_case "validation" `Quick test_dynamic_validation;
      ] );
    ( "workloads.fattree",
      [
        Alcotest.test_case "small fabric completes" `Quick
          test_fattree_completes;
        Alcotest.test_case "determinism" `Quick test_fattree_determinism;
        Alcotest.test_case "validation" `Quick test_fattree_validation;
      ] );
    ( "workloads.convergence",
      [
        Alcotest.test_case "result shapes" `Quick test_convergence_shapes;
        Alcotest.test_case "fair and utilized" `Quick
          test_convergence_fair_and_utilized;
        Alcotest.test_case "convergence times finite" `Quick
          test_convergence_times_finite;
        Alcotest.test_case "join staircase" `Quick test_convergence_staircase;
        Alcotest.test_case "validation" `Quick test_convergence_validation;
      ] );
  ]
