(* Tests for the experiment runners. Configurations are scaled down (lower
   rates, shorter windows, few repeats) so `dune runtest` stays fast; the
   full paper-scale sweeps live in bench/. *)

module Time = Engine.Time
module L = Workloads.Longlived
module I = Workloads.Incast
module Cm = Workloads.Completion

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

let small_longlived =
  {
    L.default_config with
    L.n_flows = 4;
    bottleneck_rate_bps = 1e9;
    warmup = Time.span_of_ms 30.;
    measure = Time.span_of_ms 50.;
    buffer_bytes = 300 * 1500;
  }

let dctcp_proto = Dctcp.Protocol.dctcp_pkts ~k:40 ()
let dt_proto = Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 ()

let test_longlived_utilization () =
  let r = L.run dctcp_proto small_longlived in
  checkb
    (Printf.sprintf "utilization %.3f > 0.9" r.L.utilization)
    true (r.L.utilization > 0.9);
  checkb "no drops on big buffer" true (r.L.drops = 0)

let test_longlived_queue_near_threshold () =
  let r = L.run dctcp_proto small_longlived in
  checkb
    (Printf.sprintf "mean queue %.1f pkts sane" r.L.mean_queue_pkts)
    true
    (r.L.mean_queue_pkts > 5. && r.L.mean_queue_pkts < 120.);
  checkb "std smaller than mean scale" true
    (r.L.std_queue_pkts < 2. *. r.L.mean_queue_pkts);
  checkb "max at least mean" true (r.L.max_queue_pkts >= r.L.mean_queue_pkts)

let test_longlived_alpha_and_marks () =
  let r = L.run dctcp_proto small_longlived in
  checkb "alpha in (0,1)" true (r.L.mean_alpha > 0. && r.L.mean_alpha < 1.);
  checkb "marking active" true (r.L.marked_fraction > 0.)

let test_longlived_fairness () =
  let r = L.run dctcp_proto small_longlived in
  checkb
    (Printf.sprintf "jain %.3f high" r.L.jain_fairness)
    true (r.L.jain_fairness > 0.8)

(* The sampling contract of the queue series: one sample at the warm-up
   instant, then one per period through the end of the window. *)
let test_longlived_trace () =
  let period = Time.span_of_us 100. in
  let cfg = { small_longlived with L.trace_sampling = Some period } in
  let r = L.run dctcp_proto cfg in
  match r.L.queue_series with
  | Some series ->
      checki "measure / period + 1 samples"
        (Int64.to_int (Int64.div cfg.L.measure period) + 1)
        (Array.length series);
      let t0, _ = series.(0) in
      checkb "first sample at the warm-up instant" true
        (Float.equal t0 (Time.to_sec (Time.of_ns cfg.L.warmup)));
      checkb "times strictly increase" true
        (Array.for_all Fun.id
           (Array.init
              (Array.length series - 1)
              (fun i -> fst series.(i) < fst series.(i + 1))))
  | None -> Alcotest.fail "expected a queue series"

let test_longlived_no_trace_by_default () =
  let r = L.run dctcp_proto small_longlived in
  checkb "no series" true (r.L.queue_series = None)

let test_longlived_determinism () =
  let a = L.run dctcp_proto small_longlived in
  let b = L.run dctcp_proto small_longlived in
  checkf "same mean queue" a.L.mean_queue_pkts b.L.mean_queue_pkts;
  checkf "same throughput" a.L.throughput_bps b.L.throughput_bps

let test_longlived_seed_changes_details () =
  let a = L.run dctcp_proto small_longlived in
  let b = L.run dctcp_proto { small_longlived with L.seed = 2L } in
  (* different seeds stagger flows differently; exact equality would be
     suspicious *)
  checkb "different runs differ" true
    (a.L.mean_queue_pkts <> b.L.mean_queue_pkts
    || a.L.throughput_bps <> b.L.throughput_bps)

let test_longlived_dt_reduces_stddev () =
  (* The paper's Figure 11 claim at small scale: same config, DT-DCTCP
     shows no larger queue stddev than DCTCP. *)
  let cfg = { small_longlived with L.n_flows = 10 } in
  let rdc = L.run (Dctcp.Protocol.dctcp_pkts ~k:40 ()) cfg in
  let rdt = L.run (Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 ()) cfg in
  checkb
    (Printf.sprintf "std dt %.2f <= std dctcp %.2f * 1.1" rdt.L.std_queue_pkts
       rdc.L.std_queue_pkts)
    true
    (rdt.L.std_queue_pkts <= (rdc.L.std_queue_pkts *. 1.1) +. 0.5)

let test_longlived_reno_fills_buffer () =
  (* Drop-tail Reno should drive a much larger queue than DCTCP. *)
  let rdc = L.run dctcp_proto small_longlived in
  let rreno = L.run (Dctcp.Protocol.reno ()) small_longlived in
  checkb
    (Printf.sprintf "reno queue %.0f > dctcp queue %.0f" rreno.L.mean_queue_pkts
       rdc.L.mean_queue_pkts)
    true
    (rreno.L.mean_queue_pkts > rdc.L.mean_queue_pkts)

let test_longlived_validation () =
  checkb "zero flows raises" true
    (match L.run dctcp_proto { small_longlived with L.n_flows = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Incast --- *)

let incast_proto = Dctcp.Protocol.dctcp ~k_bytes:(32 * 1024) ()

let small_incast =
  { I.default_config with I.n_flows = 4; repeats = 3 }

let test_incast_small_completes () =
  let r = I.run incast_proto small_incast in
  checki "all repeats finish" 0 r.I.incomplete;
  (* exactly zero timeouts is the property under test *)
  checkb "no timeouts at small n" true (r.I.timeouts_per_run = 0.);  (* dtlint: allow R2 *)
  checkb
    (Printf.sprintf "goodput %.0f Mbps reasonable" (r.I.mean_goodput_bps /. 1e6))
    true
    (r.I.mean_goodput_bps > 0.3e9 && r.I.mean_goodput_bps < 1e9)

let test_incast_collapse_at_large_n () =
  let r = I.run incast_proto { small_incast with I.n_flows = 44 } in
  checkb "timeouts happen" true (r.I.timeouts_per_run > 0.);
  checkb
    (Printf.sprintf "goodput collapsed to %.0f Mbps" (r.I.mean_goodput_bps /. 1e6))
    true
    (r.I.mean_goodput_bps < 0.4e9)

let test_incast_completion_floor () =
  (* n * 64KB at 1 Gbps sets a serialization floor on completion. *)
  let r = I.run incast_proto small_incast in
  let floor_s =
    float_of_int (4 * 64 * 1024 * 8) /. 1e9
  in
  checkb "above line-rate floor" true (r.I.mean_completion >= floor_s *. 0.9);
  checkb "min <= mean <= max" true
    (r.I.min_goodput_bps <= r.I.mean_goodput_bps
    && r.I.mean_goodput_bps <= r.I.max_goodput_bps)

let test_incast_goodput_of_completion () =
  let g = I.goodput_of_completion small_incast 1. in
  checkf "bytes over time" (float_of_int (4 * 64 * 1024 * 8)) g;
  checkf "zero time" 0. (I.goodput_of_completion small_incast 0.)

let test_incast_determinism () =
  let a = I.run incast_proto small_incast in
  let b = I.run incast_proto small_incast in
  checkf "same goodput" a.I.mean_goodput_bps b.I.mean_goodput_bps

let test_incast_validation () =
  checkb "zero flows raises" true
    (match I.run incast_proto { small_incast with I.n_flows = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "zero repeats raises" true
    (match I.run incast_proto { small_incast with I.repeats = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Completion --- *)

let small_completion =
  { Cm.default_config with Cm.n_flows = 4; repeats = 3 }

let test_completion_floor () =
  let r = Cm.run incast_proto small_completion in
  (* 1 MB at 1 Gbps is ~8.4 ms serialization. *)
  checkb
    (Printf.sprintf "mean %.2f ms above floor" (r.Cm.mean_completion_s *. 1e3))
    true
    (r.Cm.mean_completion_s > 8e-3 && r.Cm.mean_completion_s < 50e-3);
  checki "complete" 0 r.Cm.incomplete;
  checkb "min <= mean <= max" true
    (r.Cm.min_completion_s <= r.Cm.mean_completion_s
    && r.Cm.mean_completion_s <= r.Cm.max_completion_s)

let test_completion_incast_spike () =
  let r = Cm.run incast_proto { small_completion with Cm.n_flows = 44 } in
  checkb
    (Printf.sprintf "timeout spike: %.1f ms" (r.Cm.mean_completion_s *. 1e3))
    true
    (r.Cm.mean_completion_s > 0.1)

let test_completion_percentiles () =
  let r = Cm.run incast_proto small_completion in
  checkb "p99 at least mean-ish" true
    (r.Cm.p99_completion_s >= r.Cm.mean_completion_s -. 1e-6);
  checkb "stddev finite" true (Float.is_finite r.Cm.stddev_completion_s)

let test_completion_validation () =
  checkb "zero flows raises" true
    (match Cm.run incast_proto { small_completion with Cm.n_flows = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Deadline --- *)

let deadline_marking () =
  Dctcp.Marking_policies.single_threshold ~k_bytes:(32 * 1024)

let small_deadline =
  {
    Workloads.Deadline.default_config with
    Workloads.Deadline.n_flows = 4;
    repeats = 2;
  }

let test_deadline_generous_all_met () =
  let r =
    Workloads.Deadline.run ~marking:deadline_marking
      (Workloads.Deadline.Plain (Dctcp.Dctcp_cc.cc ()))
      {
        small_deadline with
        Workloads.Deadline.deadline = Time.span_of_sec 5.;
      }
  in
  checkf "all met" 1. r.Workloads.Deadline.met_fraction;
  checki "none incomplete" 0 r.Workloads.Deadline.incomplete;
  checkb "completion positive" true
    (r.Workloads.Deadline.mean_completion_s > 0.)

let test_deadline_impossible_none_met () =
  let r =
    Workloads.Deadline.run ~marking:deadline_marking
      (Workloads.Deadline.Plain (Dctcp.Dctcp_cc.cc ()))
      {
        small_deadline with
        Workloads.Deadline.deadline = Time.span_of_us 1.;
        deadline_spread = 0L;
      }
  in
  checkf "none met" 0. r.Workloads.Deadline.met_fraction

let test_deadline_aware_kind_runs () =
  let r =
    Workloads.Deadline.run ~marking:deadline_marking
      (Workloads.Deadline.Deadline_aware
         (fun ~total_segments ~deadline ->
           Dctcp.D2tcp_cc.cc ~total_segments ~deadline ()))
      { small_deadline with Workloads.Deadline.deadline = Time.span_of_sec 1. }
  in
  checkf "d2tcp meets generous deadlines" 1. r.Workloads.Deadline.met_fraction

let test_deadline_validation () =
  checkb "zero flows raises" true
    (match
       Workloads.Deadline.run ~marking:deadline_marking
         (Workloads.Deadline.Plain Tcp.Cc.reno)
         { small_deadline with Workloads.Deadline.n_flows = 0 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Dynamic --- *)

let small_dynamic =
  {
    Workloads.Dynamic.default_config with
    Workloads.Dynamic.duration = Time.span_of_ms 30.;
    warmup = Time.span_of_ms 20.;
    drain = Time.span_of_ms 50.;
    arrival_rate = 2000.;
  }

let test_dynamic_completes_short_flows () =
  let r = Workloads.Dynamic.run dctcp_proto small_dynamic in
  checkb "short flows arrived" true (r.Workloads.Dynamic.short_flows_started > 20);
  checki "all completed" r.Workloads.Dynamic.short_flows_started
    r.Workloads.Dynamic.short_flows_completed;
  checkb "fct positive" true (r.Workloads.Dynamic.fct_p50_s > 0.);
  checkb "p99 >= p50" true
    (r.Workloads.Dynamic.fct_p99_s >= r.Workloads.Dynamic.fct_p50_s);
  checkb "background kept running" true
    (r.Workloads.Dynamic.background_throughput_bps > 1e9)

let test_dynamic_reno_inflates_fct () =
  (* Reno needs ~50 ms of additive increase before its standing queue is
     in place; give the comparison a long warmup. *)
  let cfg =
    { small_dynamic with Workloads.Dynamic.warmup = Time.span_of_ms 120. }
  in
  let rdc = Workloads.Dynamic.run dctcp_proto cfg in
  let rreno = Workloads.Dynamic.run (Dctcp.Protocol.reno ()) cfg in
  checkb
    (Printf.sprintf "reno p50 %.0fus > dctcp p50 %.0fus"
       (rreno.Workloads.Dynamic.fct_p50_s *. 1e6)
       (rdc.Workloads.Dynamic.fct_p50_s *. 1e6))
    true
    (rreno.Workloads.Dynamic.fct_p50_s > rdc.Workloads.Dynamic.fct_p50_s);
  checkb "reno queue bigger" true
    (rreno.Workloads.Dynamic.mean_queue_pkts
    > rdc.Workloads.Dynamic.mean_queue_pkts)

let test_dynamic_determinism () =
  let a = Workloads.Dynamic.run dctcp_proto small_dynamic in
  let b = Workloads.Dynamic.run dctcp_proto small_dynamic in
  checki "same arrivals" a.Workloads.Dynamic.short_flows_started
    b.Workloads.Dynamic.short_flows_started;
  checkf "same p99" a.Workloads.Dynamic.fct_p99_s b.Workloads.Dynamic.fct_p99_s

let test_dynamic_validation () =
  checkb "bad arrival rate raises" true
    (match
       Workloads.Dynamic.run dctcp_proto
         { small_dynamic with Workloads.Dynamic.arrival_rate = 0. }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Convergence --- *)

let small_convergence =
  {
    Workloads.Convergence.default_config with
    Workloads.Convergence.n_flows = 3;
    join_interval = Time.span_of_ms 60.;
    hold = Time.span_of_ms 60.;
    sample_window = Time.span_of_ms 5.;
  }

let test_convergence_shapes () =
  let r = Workloads.Convergence.run dctcp_proto small_convergence in
  let module C = Workloads.Convergence in
  checkb "windows recorded" true (Array.length r.C.shares > 10);
  checki "per-flow columns" 3 (Array.length r.C.shares.(0));
  checkf ~eps:1e-9 "window width" 5e-3 r.C.window_s

let test_convergence_fair_and_utilized () =
  let r = Workloads.Convergence.run dctcp_proto small_convergence in
  let module C = Workloads.Convergence in
  checkb
    (Printf.sprintf "jain %.3f" r.C.jain_steady)
    true (r.C.jain_steady > 0.85);
  checkb
    (Printf.sprintf "utilization %.3f" r.C.utilization_steady)
    true (r.C.utilization_steady > 0.9)

let test_convergence_times_finite () =
  let r = Workloads.Convergence.run dctcp_proto small_convergence in
  let module C = Workloads.Convergence in
  Array.iteri
    (fun i t ->
      checkb (Printf.sprintf "flow %d converged" i) true (not (Float.is_nan t));
      checkb "non-negative" true (t >= 0.))
    r.C.convergence_times_s

let test_convergence_staircase () =
  (* While only flow 0 is active it should hold (nearly) the whole link. *)
  let r = Workloads.Convergence.run dctcp_proto small_convergence in
  let module C = Workloads.Convergence in
  (* windows 4-10 fall inside flow 0's solo period after slow start *)
  let solo = r.C.shares.(8).(0) in
  checkb
    (Printf.sprintf "solo share %.0f Mbps" (solo /. 1e6))
    true
    (solo > 0.8e9);
  checkf "others idle" 0. r.C.shares.(8).(2)

let test_convergence_validation () =
  checkb "zero flows raises" true
    (match
       Workloads.Convergence.run dctcp_proto
         { small_convergence with Workloads.Convergence.n_flows = 0 }
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
  let r = Ft.run dctcp_proto small_fattree in
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
  let a = Ft.run dt_proto small_fattree in
  let b = Ft.run dt_proto small_fattree in
  checkb "bit-identical rerun" true (a = b);
  let c = Ft.run dt_proto { small_fattree with Ft.seed = 2L } in
  checkb "seed moves the details" true (a <> c)

let test_fattree_validation () =
  checkb "odd k raises" true
    (match Ft.run dctcp_proto { small_fattree with Ft.k = 5 } with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "zero fanin raises" true
    (match Ft.run dctcp_proto { small_fattree with Ft.incast_fanin = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "faults rejected" true
    (match Ft.run ~faults:Fault.Plan.none dctcp_proto small_fattree with
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
