(* Performance section: the events/s baseline behind BENCH_perf.json, on
   the registry's perf_dumbbell family (the paper's DT-DCTCP point at
   N = 4, 32, 128 and 512 long-lived flows). Per-stage ns/op rows and the
   tracer and self-profiler overhead rows live in perfbench/; the
   per-event-class breakdown of a point is `dtsim sweep --name
   perf_dumbbell/dt-dctcp/n=32 --profile-out FILE`. *)

module Outcome = Exp.Outcome

let run () =
  Bench_common.section_header "Performance: events/s (DT-DCTCP dumbbell)";
  let window ms =
    Exp.Claim.scaled ~quick:!Bench_common.quick (Engine.Time.span_of_ms ms)
  in
  (* Serial whatever -j says: runs sharing the host's cores would lower
     each other's events/s. *)
  let points =
    Exp.Registry.perf_dumbbell_specs ~warmup:(window 100.)
      ~measure:(window 100.) ()
    |> Exp.Runner.run ~jobs:1 |> Array.to_list
    |> List.map (fun (o : Exp.Runner.outcome) ->
           match (o.spec.workload, o.result) with
           | Exp.Spec.Longlived c, Outcome.Done (Outcome.Longlived r) ->
               (c.Workloads.Longlived.n_flows, o.manifest, r)
           | _, result ->
               Printf.eprintf "bench: %s: %s\n" o.spec.name
                 (Outcome.summary result);
               exit 1)
  in
  let t =
    Stats.Table.create ~title:"events/s by flow count"
      ~columns:
        [
          Stats.Table.column "N";
          Stats.Table.column "events";
          Stats.Table.column "events/s";
          Stats.Table.column "timeouts";
          Stats.Table.column "util";
        ]
  in
  List.iter
    (fun (n, (m : Obs.Manifest.t), (r : Workloads.Longlived.result)) ->
      Stats.Table.add_row t
        [
          string_of_int n;
          string_of_int m.events;
          Printf.sprintf "%.0f" m.events_per_s;
          string_of_int r.timeouts;
          Stats.Table.fmt_f 3 r.utilization;
        ])
    points;
  Stats.Table.print t;
  let manifests = List.map (fun (_, m, _) -> m) points in
  Bench_common.write_manifest ~section:"perf"
    ~wall_s:
      (List.fold_left
         (fun acc (m : Obs.Manifest.t) -> acc +. m.wall_clock_s)
         0. manifests)
    ~seed:(List.hd manifests).seed
    ~events:
      (List.fold_left
         (fun acc (m : Obs.Manifest.t) -> acc + m.events)
         0 manifests)
    ~params:
      [
        ("scenario", Obs.Json.String "perf_dumbbell");
        ( "flow_counts",
          Obs.Json.List (List.map (fun (n, _, _) -> Obs.Json.Int n) points) );
      ]
    ~metrics:
      (List.concat_map
         (fun (n, (m : Obs.Manifest.t), _) ->
           [
             (Printf.sprintf "events_per_s.n%d" n, m.events_per_s);
             (Printf.sprintf "events.n%d" n, float_of_int m.events);
           ])
         points)
    ()
