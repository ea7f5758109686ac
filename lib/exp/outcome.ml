module Json = Obs.Json
module L = Workloads.Longlived
module F = Workloads.Fanin
module Dy = Workloads.Dynamic
module Cv = Workloads.Convergence
module Ft = Workloads.Fattree

type payload =
  | Longlived of L.result
  | Fanin of F.result
  | Dynamic of Dy.result
  | Convergence of Cv.result
  | Fattree of Ft.result

type t = Done of payload | Failed of { spec : string; error : string }

let floats xs = Json.List (Array.to_list xs |> List.map (fun x -> Json.Float x))

let longlived_json (r : L.result) =
  let base =
    [
      ("mean_queue_pkts", Json.Float r.mean_queue_pkts);
      ("std_queue_pkts", Json.Float r.std_queue_pkts);
      ("max_queue_pkts", Json.Float r.max_queue_pkts);
      ("mean_alpha", Json.Float r.mean_alpha);
      ("throughput_bps", Json.Float r.throughput_bps);
      ("utilization", Json.Float r.utilization);
      ("marked_fraction", Json.Float r.marked_fraction);
      ("drops", Json.Int r.drops);
      ("timeouts", Json.Int r.timeouts);
      ("fast_retransmits", Json.Int r.fast_retransmits);
      ("jain_fairness", Json.Float r.jain_fairness);
    ]
  in
  let series =
    match r.queue_series with
    | None -> []
    | Some pts ->
        [
          ( "queue_series",
            Json.List
              (Array.to_list pts
              |> List.map (fun (t, q) ->
                     Json.List [ Json.Float t; Json.Float q ])) );
        ]
  in
  Json.Obj (base @ series)

let goodput_json (r : F.goodput) =
  Json.Obj
    [
      ("mean_goodput_bps", Json.Float r.mean_goodput_bps);
      ("min_goodput_bps", Json.Float r.min_goodput_bps);
      ("max_goodput_bps", Json.Float r.max_goodput_bps);
      ("mean_completion", Json.Float r.mean_completion);
      ("p99_completion", Json.Float r.p99_completion);
      ("timeouts_per_run", Json.Float r.timeouts_per_run);
      ("incomplete", Json.Int r.incomplete);
    ]

let completion_json (r : F.completion_time) =
  Json.Obj
    [
      ("mean_completion_s", Json.Float r.mean_completion_s);
      ("min_completion_s", Json.Float r.min_completion_s);
      ("max_completion_s", Json.Float r.max_completion_s);
      ("p99_completion_s", Json.Float r.p99_completion_s);
      ("stddev_completion_s", Json.Float r.stddev_completion_s);
      ("timeouts_per_run", Json.Float r.timeouts_per_run);
      ("incomplete", Json.Int r.incomplete);
    ]

let dynamic_json (r : Dy.result) =
  Json.Obj
    [
      ("short_flows_started", Json.Int r.short_flows_started);
      ("short_flows_completed", Json.Int r.short_flows_completed);
      ("fct_mean_s", Json.Float r.fct_mean_s);
      ("fct_p50_s", Json.Float r.fct_p50_s);
      ("fct_p99_s", Json.Float r.fct_p99_s);
      ("fct_max_s", Json.Float r.fct_max_s);
      ("background_throughput_bps", Json.Float r.background_throughput_bps);
      ("mean_queue_pkts", Json.Float r.mean_queue_pkts);
      ("std_queue_pkts", Json.Float r.std_queue_pkts);
    ]

let convergence_json (r : Cv.result) =
  Json.Obj
    [
      ( "shares",
        Json.List (Array.to_list r.shares |> List.map (fun row -> floats row))
      );
      ("window_s", Json.Float r.window_s);
      ("convergence_times_s", floats r.convergence_times_s);
      ("jain_steady", Json.Float r.jain_steady);
      ("utilization_steady", Json.Float r.utilization_steady);
    ]

let deadlines_json (r : F.deadlines_met) =
  Json.Obj
    [
      ("met_fraction", Json.Float r.met_fraction);
      ("mean_completion_s", Json.Float r.mean_completion_s);
      ("p99_completion_s", Json.Float r.p99_completion_s);
      ("timeouts_per_run", Json.Float r.timeouts_per_run);
      ("incomplete", Json.Int r.incomplete);
    ]

let fattree_json (r : Ft.result) =
  Json.Obj
    [
      ("slowdown_p50", Json.Float r.slowdown_p50);
      ("slowdown_p95", Json.Float r.slowdown_p95);
      ("slowdown_p99", Json.Float r.slowdown_p99);
      ("slowdown_p999", Json.Float r.slowdown_p999);
      ("slowdown_mean", Json.Float r.slowdown_mean);
      ("slowdown_max", Json.Float r.slowdown_max);
      ("flows_total", Json.Int r.flows_total);
      ("timeouts", Json.Int r.timeouts);
      ("incomplete", Json.Int r.incomplete);
      ("no_route_drops", Json.Int r.no_route_drops);
    ]

let payload_kind = function
  | Longlived _ -> "longlived"
  | Fanin (F.Goodput _) -> "incast"
  | Fanin (F.Completion_time _) -> "completion"
  | Fanin (F.Deadlines_met _) -> "deadline"
  | Dynamic _ -> "dynamic"
  | Convergence _ -> "convergence"
  | Fattree _ -> "fattree"

let payload_json = function
  | Longlived r -> longlived_json r
  | Fanin (F.Goodput r) -> goodput_json r
  | Fanin (F.Completion_time r) -> completion_json r
  | Fanin (F.Deadlines_met r) -> deadlines_json r
  | Dynamic r -> dynamic_json r
  | Convergence r -> convergence_json r
  | Fattree r -> fattree_json r

let to_json = function
  | Done p ->
      Json.Obj
        [
          ("status", Json.String "done");
          ("kind", Json.String (payload_kind p));
          ("result", payload_json p);
        ]
  | Failed { spec; error } ->
      Json.Obj
        [
          ("status", Json.String "failed");
          ("spec", Json.String spec);
          ("error", Json.String error);
        ]

let summary = function
  | Failed { spec; error } -> Printf.sprintf "%s: FAILED (%s)" spec error
  | Done (Longlived r) ->
      Printf.sprintf
        "queue %.1f±%.1f pkts, util %.3f, fairness %.3f, %d drops"
        r.mean_queue_pkts r.std_queue_pkts r.utilization r.jain_fairness
        r.drops
  | Done (Fanin (F.Goodput r)) ->
      Printf.sprintf "goodput %.1f Mbps, %.2f timeouts/run, %d incomplete"
        (r.mean_goodput_bps /. 1e6)
        r.timeouts_per_run r.incomplete
  | Done (Fanin (F.Completion_time r)) ->
      Printf.sprintf "completion %.2f ms mean / %.2f ms p99, %d incomplete"
        (r.mean_completion_s *. 1e3)
        (r.p99_completion_s *. 1e3)
        r.incomplete
  | Done (Dynamic r) ->
      Printf.sprintf "fct p50 %.3f ms / p99 %.3f ms, queue %.1f pkts"
        (r.fct_p50_s *. 1e3) (r.fct_p99_s *. 1e3) r.mean_queue_pkts
  | Done (Convergence r) ->
      Printf.sprintf "jain %.3f, util %.3f" r.jain_steady r.utilization_steady
  | Done (Fanin (F.Deadlines_met r)) ->
      Printf.sprintf "%.1f%% deadlines met, %.2f timeouts/run"
        (100. *. r.met_fraction) r.timeouts_per_run
  | Done (Fattree r) ->
      Printf.sprintf
        "slowdown p50 %.2f / p99 %.2f / p99.9 %.2f, %d timeouts, %d incomplete"
        r.slowdown_p50 r.slowdown_p99 r.slowdown_p999 r.timeouts r.incomplete

let equal a b = Json.equal (to_json a) (to_json b)
