(* Oscillation observatory: the paper's central claim, measured by the
   streaming trace analyzer instead of coarse queue statistics.

   An N-sweep of long-lived flows runs DCTCP and DT-DCTCP at their
   standard operating points with the analyzer teed into each run's
   trace stream; the table compares full-band peak-trough cycles (the
   analyzer's hysteresis detector), oscillation amplitude, occupancy
   spread, marking-flip rate, and the flow-synchronization index. The
   paper's prediction — and the tracked BENCH_oscillation.json claim —
   is that DT-DCTCP's amplitude stays strictly below DCTCP's at every N:
   DCTCP's queue saws across its single threshold while the hysteresis
   band absorbs the excursion. *)

module Spec = Exp.Spec
module Json = Obs.Json

let flow_counts = [ 10; 30; 60 ]

let spec_of ~label ~protocol ~n =
  let config =
    {
      Workloads.Longlived.default_config with
      Workloads.Longlived.n_flows = n;
      warmup = Bench_common.warmup ();
      measure = Bench_common.measure ();
      seed = 42L;
    }
  in
  {
    Spec.name = Printf.sprintf "oscillation.%s.n%d" label n;
    protocol;
    workload = Spec.Longlived config;
    faults = None;
    buffer = Net.Buffer_mgr.Static;
  }

let run () =
  Bench_common.section_header
    "Oscillation: streaming-analyzer N-sweep (DCTCP vs DT-DCTCP)";
  let protos =
    [ ("dctcp", Exp.Registry.sim_dctcp); ("dt", Exp.Registry.sim_dt) ]
  in
  let specs =
    List.concat_map
      (fun (label, protocol) ->
        List.map (fun n -> spec_of ~label ~protocol ~n) flow_counts)
      protos
  in
  let outcomes, wall_s =
    Obs.Profile.time (fun () -> Bench_common.run_specs_analyzed specs)
  in
  let t =
    Stats.Table.create ~title:"whole-trace streaming analysis"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "protocol";
          Stats.Table.column "N";
          Stats.Table.column "cycles";
          Stats.Table.column "amp mean (pkts)";
          Stats.Table.column "period (ms)";
          Stats.Table.column "occ std (pkts)";
          Stats.Table.column "flips/s";
          Stats.Table.column "sync idx";
        ]
  in
  let metrics = ref [] in
  let events = ref 0 in
  let amp = Hashtbl.create 16 in
  Array.iteri
    (fun i (o : Exp.Runner.outcome) ->
      let label, n =
        let label, _ = List.nth protos (i / List.length flow_counts) in
        (label, List.nth flow_counts (i mod List.length flow_counts))
      in
      let name = o.Exp.Runner.spec.Spec.name in
      let f = Bench_common.afloat name (Bench_common.analysis_of o) in
      let cycles = f [ "cycles"; "count" ] in
      let amp_mean = f [ "cycles"; "amp_mean_pkts" ] in
      let period_ms = f [ "cycles"; "period_mean_s" ] *. 1e3 in
      let occ_std = f [ "occupancy"; "std_pkts" ] in
      let flips = f [ "marking"; "flip_rate_hz" ] in
      let sync = f [ "sync"; "index_mean" ] in
      Hashtbl.replace amp (label, n) amp_mean;
      events := !events + o.Exp.Runner.manifest.Obs.Manifest.events;
      Stats.Table.add_row t
        [
          label;
          string_of_int n;
          Printf.sprintf "%.0f" cycles;
          Printf.sprintf "%.1f" amp_mean;
          Printf.sprintf "%.3f" period_ms;
          Printf.sprintf "%.1f" occ_std;
          Printf.sprintf "%.0f" flips;
          Printf.sprintf "%.3f" sync;
        ];
      metrics :=
        [
          (Printf.sprintf "cycles.%s.n%d" label n, cycles);
          (Printf.sprintf "amp_mean_pkts.%s.n%d" label n, amp_mean);
          (Printf.sprintf "period_ms.%s.n%d" label n, period_ms);
          (Printf.sprintf "occ_std_pkts.%s.n%d" label n, occ_std);
          (Printf.sprintf "flip_rate_hz.%s.n%d" label n, flips);
          (Printf.sprintf "sync_mean.%s.n%d" label n, sync);
        ]
        @ !metrics)
    outcomes;
  Stats.Table.print t;
  List.iter
    (fun n ->
      let d = Hashtbl.find amp ("dctcp", n) in
      let dt = Hashtbl.find amp ("dt", n) in
      Printf.printf "  N=%-3d amplitude: DCTCP %.1f pkts vs DT %.1f pkts %s\n"
        n d dt
        (if dt < d then "(eased)" else "(NOT eased)"))
    flow_counts;
  Bench_common.write_manifest ~section:"oscillation" ~wall_s ~seed:42L
    ~events:!events
    ~params:
      [
        ( "flow_counts",
          Json.List (List.map (fun n -> Json.Int n) flow_counts) );
        ("protocols", Json.List [ Json.String "dctcp"; Json.String "dt" ]);
      ]
    ~metrics:!metrics ()
