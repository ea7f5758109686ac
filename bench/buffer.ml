(* Shared-buffer sizing study: amplitude and loss vs switch memory.

   One Dynamic-Threshold pool (alpha = 1) is swept from well under a
   bandwidth-delay product (10 KB against a 125 KB BDP) to deep
   buffering, under three transports: DCTCP and DT-DCTCP marking at
   fractions of the moving effective limit (the scaled policies), and
   loss-based NewReno, which only notices the buffer when admission
   fails. The tracked BENCH_buffer.json claim mirrors the oscillation
   section's: at every swept pool size the hysteresis band keeps
   DT-DCTCP's oscillation at or below DCTCP's — easing the queue
   oscillation does not stop working when the walls move.

   The gated quantity is the TRIMMED mean amplitude — the per-cycle
   mean with the single largest cycle dropped. The analyzer sees the
   run from t = 0, so the warmup slow-start fill counts as one giant
   full-band cycle; for a transport so stable it produces no further
   cycles, that transient IS the untrimmed mean (at B = 2 BDP the
   DT-DCTCP run's only "cycle" is the 83-packet warmup spike, after
   which hysteresis holds the queue inside the band for the whole
   measurement). Dropping the max removes exactly that one-off from
   both protocols alike while leaving genuine saw-tooth statistics
   essentially untouched. *)

module Spec = Exp.Spec
module Json = Obs.Json

let alpha = 1.0
let pool_sizes = Exp.Registry.buffer_pool_sizes
let ecn_labels = [ "dctcp"; "dt-dctcp" ]

let specs () =
  Exp.Registry.fig_buffer_specs ~pool_sizes ~alphas:[ alpha ]
    ~warmup:(Bench_common.warmup ()) ~measure:(Bench_common.measure ()) ()

let manifest_metric (o : Exp.Runner.outcome) key =
  let m = o.Exp.Runner.manifest.Obs.Manifest.metrics in
  match List.find_opt (fun (k, _) -> String.equal k key) m with
  | Some (_, v) -> v
  | None -> 0.

let run () =
  Bench_common.section_header
    "Buffer sizing: shared Dynamic-Threshold pool (alpha = 1)";
  let specs = specs () in
  let outcomes, wall_s =
    Obs.Profile.time (fun () -> Bench_common.run_specs_analyzed specs)
  in
  let t =
    Stats.Table.create ~title:"amplitude and loss vs shared pool size"
      ~columns:
        [
          Stats.Table.column ~align:Stats.Table.Left "protocol";
          Stats.Table.column "pool (KB)";
          Stats.Table.column "BDP";
          Stats.Table.column "cycles";
          Stats.Table.column "amp mean (pkts)";
          Stats.Table.column "amp trim (pkts)";
          Stats.Table.column "occ std (pkts)";
          Stats.Table.column "drops";
          Stats.Table.column "rejects";
          Stats.Table.column "util";
        ]
  in
  let metrics = ref [] in
  let events = ref 0 in
  let amp = Hashtbl.create 16 in
  let slugs = List.map fst Exp.Registry.buffer_protocols in
  let n_protos = List.length slugs in
  Array.iteri
    (fun i (o : Exp.Runner.outcome) ->
      let pool_bytes = List.nth pool_sizes (i / n_protos) in
      let label = List.nth slugs (i mod n_protos) in
      let name = o.Exp.Runner.spec.Spec.name in
      let r = Bench_common.longlived_of o in
      let f = Bench_common.afloat name (Bench_common.analysis_of o) in
      let amp_mean = f [ "cycles"; "amp_mean_pkts" ] in
      let amp_max = f [ "cycles"; "amp_max_pkts" ] in
      let cycles = f [ "cycles"; "count" ] in
      let amp_trim =
        if cycles >= 2. then
          ((amp_mean *. cycles) -. amp_max) /. (cycles -. 1.)
        else 0.
      in
      let occ_std = f [ "occupancy"; "std_pkts" ] in
      let rejects = manifest_metric o "buffer.pool_rejects" in
      let high_water = manifest_metric o "buffer.pool_high_water" in
      let ecn = List.mem label ecn_labels in
      if ecn then Hashtbl.replace amp (label, pool_bytes) amp_trim;
      events := !events + o.Exp.Runner.manifest.Obs.Manifest.events;
      Stats.Table.add_row t
        [
          label;
          Printf.sprintf "%.1f" (float_of_int pool_bytes /. 1e3);
          Printf.sprintf "%.2f"
            (float_of_int pool_bytes
            /. float_of_int Exp.Registry.bdp_bytes);
          (* The loss-based run has no marking band, so the cycle
             detector is off and amplitude is not a number for it. *)
          (if ecn then Printf.sprintf "%.0f" cycles else "-");
          (if ecn then Printf.sprintf "%.1f" amp_mean else "-");
          (if ecn then Printf.sprintf "%.1f" amp_trim else "-");
          Printf.sprintf "%.1f" r.Workloads.Longlived.std_queue_pkts;
          string_of_int r.Workloads.Longlived.drops;
          Printf.sprintf "%.0f" rejects;
          Printf.sprintf "%.3f" r.Workloads.Longlived.utilization;
        ];
      let key fmt = Printf.sprintf "%s.%s.B%d" fmt label pool_bytes in
      metrics :=
        (if ecn then
           [
             (key "amp_mean_pkts", amp_mean);
             (key "amp_trim_pkts", amp_trim);
             (key "cycles", cycles);
           ]
         else [])
        @ [
            (key "occ_std_pkts", occ_std);
            ( key "drops",
              float_of_int r.Workloads.Longlived.drops );
            (key "pool_rejects", rejects);
            (key "pool_high_water", high_water);
            (key "util", r.Workloads.Longlived.utilization);
          ]
        @ !metrics)
    outcomes;
  Stats.Table.print t;
  List.iter
    (fun b ->
      let d = Hashtbl.find amp ("dctcp", b) in
      let dt = Hashtbl.find amp ("dt-dctcp", b) in
      Printf.printf
        "  B=%-8d trimmed amplitude: DCTCP %.1f pkts vs DT %.1f pkts %s\n" b
        d dt
        (if dt <= d then "(eased)" else "(NOT eased)"))
    pool_sizes;
  Bench_common.write_manifest ~section:"buffer" ~wall_s ~seed:1L
    ~events:!events
    ~params:
      [
        ( "pool_sizes",
          Json.List (List.map (fun b -> Json.Int b) pool_sizes) );
        ("alpha", Json.Float alpha);
        ("bdp_bytes", Json.Int Exp.Registry.bdp_bytes);
        ("protocols", Json.List (List.map (fun s -> Json.String s) slugs));
      ]
    ~metrics:!metrics ()
