(* dtsim: command-line driver for the DT-DCTCP reproduction.

   Workload subcommands build an Exp.Spec from their flags and hand it to
   Exp.Runner, so a CLI run is the same artifact as a bench point: one
   spec, one manifest, reproducible from either. `dtsim sweep` runs whole
   named spec lists from Exp.Registry (optionally across domains); the
   stability/fluid subcommands are closed-form analysis and bypass the
   experiment layer. *)

open Cmdliner
module Time = Engine.Time
module Spec = Exp.Spec
module Runner = Exp.Runner
module Outcome = Exp.Outcome

(* --- shared protocol arguments --- *)

type proto_choice = P_dctcp | P_dt | P_reno | P_ecn_reno

let proto_conv =
  Arg.enum
    [
      ("dctcp", P_dctcp);
      ("dt-dctcp", P_dt);
      ("reno", P_reno);
      ("ecn-reno", P_ecn_reno);
    ]

let proto_arg =
  Arg.(
    value
    & opt proto_conv P_dctcp
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:"Transport protocol: dctcp, dt-dctcp, reno or ecn-reno.")

let k_arg =
  Arg.(
    value
    & opt int 40
    & info [ "k" ] ~docv:"PKTS" ~doc:"DCTCP marking threshold in packets.")

let k1_arg =
  Arg.(
    value
    & opt int 30
    & info [ "k1" ] ~docv:"PKTS"
        ~doc:"DT-DCTCP start-marking threshold (packets, rising).")

let k2_arg =
  Arg.(
    value
    & opt int 50
    & info [ "k2" ] ~docv:"PKTS"
        ~doc:"DT-DCTCP stop-marking threshold (packets, falling).")

let g_arg =
  Arg.(
    value
    & opt float (1. /. 16.)
    & info [ "g" ] ~docv:"G" ~doc:"DCTCP EWMA gain.")

let seed_arg =
  Arg.(
    value
    & opt int64 1L
    & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let segment_bytes = 1500

(* Simulation-style thresholds, packet-denominated. *)
let sim_protocol proto g k k1 k2 =
  match proto with
  | P_dctcp -> Spec.Dctcp { g; k_bytes = k * segment_bytes }
  | P_dt ->
      Spec.Dt_dctcp
        { g; k1_bytes = k1 * segment_bytes; k2_bytes = k2 * segment_bytes }
  | P_reno -> Spec.Reno
  | P_ecn_reno -> Spec.Ecn_reno { k_bytes = k * segment_bytes }

(* Testbed-style thresholds, KB-denominated. *)
let testbed_protocol proto g kkb k1kb k2kb =
  match proto with
  | P_dctcp -> Spec.Dctcp { g; k_bytes = kkb * 1024 }
  | P_dt ->
      Spec.Dt_dctcp { g; k1_bytes = k1kb * 1024; k2_bytes = k2kb * 1024 }
  | P_reno -> Spec.Reno
  | P_ecn_reno -> Spec.Ecn_reno { k_bytes = kkb * 1024 }

let proto_label p = (Spec.protocol_of p).Dctcp.Protocol.name

(* Run one spec; a failed workload is a CLI error, not a silent success. *)
let exec ?tracer ?on_sim ?analyze spec =
  let outcome = Runner.run_one ?tracer ?on_sim ?analyze spec in
  (match outcome.Runner.result with
  | Outcome.Failed { error; _ } ->
      Printf.eprintf "dtsim: %s\n" error;
      exit 1
  | Outcome.Done _ -> ());
  outcome

let write_manifest_opt ~file (outcome : Runner.outcome) =
  if file <> "" then begin
    let oc = open_out file in
    Obs.Manifest.write oc outcome.Runner.manifest;
    close_out oc;
    Printf.printf "run manifest        %s\n" file
  end

(* --- longlived --- *)

let parse_trace_events spec =
  match spec with
  | "" -> None
  | s ->
      let names = String.split_on_char ',' s in
      Some
        (List.map
           (fun name ->
             match Obs.Trace.cls_of_name name with
             | Some c -> c
             | None ->
                 Printf.eprintf
                   "dtsim: unknown trace event %S (known: %s)\n" name
                   (String.concat ", "
                      (List.map Obs.Trace.cls_name Obs.Trace.all_classes));
                 exit 2)
           names)

let longlived_cmd =
  let run proto g k k1 k2 seed n rate_gbps rtt_us warmup_ms measure_ms
      trace_csv trace_out trace_events metrics_out analysis_out
      profile_out =
    let protocol = sim_protocol proto g k k1 k2 in
    let config =
      {
        Workloads.Longlived.default_config with
        Workloads.Longlived.n_flows = n;
        bottleneck_rate_bps = rate_gbps *. 1e9;
        rtt = Time.span_of_us rtt_us;
        warmup = Time.span_of_ms warmup_ms;
        measure = Time.span_of_ms measure_ms;
        trace_sampling =
          (if trace_csv <> "" then Some (Time.span_of_us 20.) else None);
        seed;
      }
    in
    let spec =
      {
        Spec.name = "dtsim.longlived";
        protocol;
        workload = Spec.Longlived config;
        faults = None;
        buffer = Net.Buffer_mgr.Static;
      }
    in
    let classes = parse_trace_events trace_events in
    let trace_oc = if trace_out = "" then None else Some (open_out trace_out) in
    let tracer =
      match trace_oc with
      | Some oc ->
          let tr = Obs.Trace.create ?classes (Obs.Trace.Jsonl oc) in
          (* Header first: the analyzer config this spec implies plus the
             tracer's class filter, so `dtsim analyze` can replay the
             file with the exact online parameters. *)
          (match Runner.analysis_config spec with
          | Some acfg ->
              Obs.Json.write oc
                (Obs.Analyze.Header.to_json
                   {
                     Obs.Analyze.Header.config = acfg;
                     classes = Obs.Trace.enabled_classes tr;
                   });
              output_char oc '\n'
          | None -> ());
          tr
      | None -> Obs.Trace.null
    in
    let profiler =
      if profile_out = "" then None else Some (Obs.Selfprof.create ())
    in
    let on_sim =
      Option.map (fun p sim -> Obs.Selfprof.attach p sim) profiler
    in
    let outcome = exec ~tracer ?on_sim ~analyze:(analysis_out <> "") spec in
    (match trace_oc with
    | Some oc ->
        close_out oc;
        Printf.printf "event trace         %s\n" trace_out
    | None -> ());
    (match (analysis_out, outcome.Runner.manifest.Obs.Manifest.analysis) with
    | "", _ | _, None -> ()
    | file, Some analysis ->
        let oc = open_out file in
        Obs.Json.write oc analysis;
        output_char oc '\n';
        close_out oc;
        Printf.printf "analysis            %s\n" file);
    (match profiler with
    | None -> ()
    | Some p ->
        let oc = open_out profile_out in
        Obs.Json.write oc (Obs.Selfprof.to_json p);
        output_char oc '\n';
        close_out oc;
        Printf.printf "engine profile      %s (%d events, %d timed)\n"
          profile_out (Obs.Selfprof.total p)
          (Obs.Selfprof.sampled_total p));
    write_manifest_opt ~file:metrics_out outcome;
    let r =
      match outcome.Runner.result with
      | Outcome.Done (Outcome.Longlived r) -> r
      | _ -> assert false
    in
    let open Workloads.Longlived in
    Printf.printf "protocol            %s\n" (proto_label protocol);
    Printf.printf "flows               %d\n" n;
    Printf.printf "mean queue          %.2f pkts\n" r.mean_queue_pkts;
    Printf.printf "queue stddev        %.2f pkts\n" r.std_queue_pkts;
    Printf.printf "max queue           %.0f pkts\n" r.max_queue_pkts;
    Printf.printf "mean alpha          %.3f\n" r.mean_alpha;
    Printf.printf "throughput          %.3f Gbps (util %.3f)\n"
      (r.throughput_bps /. 1e9) r.utilization;
    Printf.printf "marked fraction     %.3f\n" r.marked_fraction;
    Printf.printf "drops / timeouts    %d / %d\n" r.drops r.timeouts;
    Printf.printf "Jain fairness       %.3f\n" r.jain_fairness;
    match (trace_csv, r.queue_series) with
    | "", _ | _, None -> ()
    | file, Some series ->
        let oc = open_out file in
        output_string oc "time_s,queue_pkts\n";
        Array.iter (fun (t, v) -> Printf.fprintf oc "%.9f,%g\n" t v) series;
        close_out oc;
        Printf.printf "queue trace         %s (%d samples)\n" file
          (Array.length series)
  in
  let n = Arg.(value & opt int 10 & info [ "n"; "flows" ] ~docv:"N") in
  let rate =
    Arg.(value & opt float 10. & info [ "rate-gbps" ] ~docv:"GBPS")
  in
  let rtt = Arg.(value & opt float 100. & info [ "rtt-us" ] ~docv:"US") in
  let warmup = Arg.(value & opt float 100. & info [ "warmup-ms" ] ~docv:"MS") in
  let measure =
    Arg.(value & opt float 200. & info [ "measure-ms" ] ~docv:"MS")
  in
  let trace =
    Arg.(
      value & opt string ""
      & info [ "trace-csv" ] ~docv:"FILE"
          ~doc:"Dump the sampled queue series to FILE.")
  in
  let trace_out =
    Arg.(
      value & opt string ""
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the structured event stream (drops, marks, hysteresis \
             flips, cwnd cuts, RTOs, ...) to FILE as JSON lines.")
  in
  let trace_events =
    Arg.(
      value & opt string ""
      & info [ "trace-events" ] ~docv:"LIST"
          ~doc:
            "Comma-separated event classes to trace (e.g. \
             drop,mark,mark_state_flip). Default: all classes.")
  in
  let metrics_out =
    Arg.(
      value & opt string ""
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write an Obs.Manifest run-provenance record (seed, full \
             Exp.Spec, wall clock, events/s, final metrics snapshot) to \
             FILE as JSON.")
  in
  let analysis_out =
    Arg.(
      value & opt string ""
      & info [ "analysis-out" ] ~docv:"FILE"
          ~doc:
            "Run the streaming oscillation analyzer online (teed into the \
             trace stream) and write its JSON block to FILE. The same \
             block is embedded in --metrics-out, and `dtsim analyze` on a \
             --trace-out file reproduces it bit for bit.")
  in
  let profile_out =
    Arg.(
      value & opt string ""
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Attach the sampled per-event-class engine self-profiler and \
             write its JSON report to FILE.")
  in
  Cmd.v
    (Cmd.info "longlived"
       ~doc:"N long-lived flows over the 10 Gbps dumbbell (paper Figs 1, 10-12)")
    Term.(
      const run $ proto_arg $ g_arg $ k_arg $ k1_arg $ k2_arg $ seed_arg $ n
      $ rate $ rtt $ warmup $ measure $ trace $ trace_out
      $ trace_events $ metrics_out $ analysis_out $ profile_out)

(* --- incast --- *)

let kkb_arg =
  Arg.(value & opt int 32 & info [ "k-kb" ] ~docv:"KB" ~doc:"K in KB.")

let k1kb_arg =
  Arg.(value & opt int 28 & info [ "k1-kb" ] ~docv:"KB" ~doc:"K1 (start) in KB.")

let k2kb_arg =
  Arg.(value & opt int 34 & info [ "k2-kb" ] ~docv:"KB" ~doc:"K2 (stop) in KB.")

let sack_arg =
  Arg.(
    value & flag
    & info [ "sack" ]
        ~doc:"Use selective-acknowledgment loss recovery instead of go-back-N.")

let metrics_out_arg =
  Arg.(
    value & opt string ""
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the run's Obs.Manifest record to FILE as JSON.")

let incast_cmd =
  let run proto g kkb k1kb k2kb seed n bytes_kb repeats jitter_us sack
      metrics_out =
    let protocol = testbed_protocol proto g kkb k1kb k2kb in
    let config =
      {
        Workloads.Incast.default_config with
        Workloads.Incast.n_flows = n;
        bytes_per_flow = bytes_kb * 1024;
        repeats;
        start_jitter = Time.span_of_us jitter_us;
        seed;
      }
    in
    let spec =
      {
        Spec.name = "dtsim.incast";
        protocol;
        workload = Spec.Incast { config; sack };
        faults = None;
        buffer = Net.Buffer_mgr.Static;
      }
    in
    let outcome = exec spec in
    write_manifest_opt ~file:metrics_out outcome;
    let r =
      match outcome.Runner.result with
      | Outcome.Done (Outcome.Incast r) -> r
      | _ -> assert false
    in
    let open Workloads.Incast in
    Printf.printf "protocol         %s\n" (proto_label protocol);
    Printf.printf "flows            %d x %d KB\n" n bytes_kb;
    Printf.printf "goodput          %.1f Mbps (min %.1f, max %.1f)\n"
      (r.mean_goodput_bps /. 1e6)
      (r.min_goodput_bps /. 1e6)
      (r.max_goodput_bps /. 1e6);
    Printf.printf "completion       %.2f ms (p99 %.2f)\n"
      (r.mean_completion *. 1e3)
      (r.p99_completion *. 1e3);
    Printf.printf "timeouts/run     %.1f\n" r.timeouts_per_run;
    Printf.printf "incomplete runs  %d\n" r.incomplete
  in
  let n = Arg.(value & opt int 32 & info [ "n"; "flows" ] ~docv:"N") in
  let bytes = Arg.(value & opt int 64 & info [ "bytes-kb" ] ~docv:"KB") in
  let repeats = Arg.(value & opt int 20 & info [ "repeats" ] ~docv:"R") in
  let jitter = Arg.(value & opt float 300. & info [ "jitter-us" ] ~docv:"US") in
  Cmd.v
    (Cmd.info "incast"
       ~doc:"Synchronized fan-in on the 1 Gbps testbed star (paper Fig 14)")
    Term.(
      const run $ proto_arg $ g_arg $ kkb_arg $ k1kb_arg $ k2kb_arg $ seed_arg
      $ n $ bytes $ repeats $ jitter $ sack_arg $ metrics_out_arg)

let completion_cmd =
  let run proto g kkb k1kb k2kb seed n total_kb repeats metrics_out =
    let protocol = testbed_protocol proto g kkb k1kb k2kb in
    let config =
      {
        Workloads.Completion.default_config with
        Workloads.Completion.n_flows = n;
        total_bytes = total_kb * 1024;
        repeats;
        seed;
      }
    in
    let spec =
      {
        Spec.name = "dtsim.completion";
        protocol;
        workload = Spec.Completion config;
        faults = None;
        buffer = Net.Buffer_mgr.Static;
      }
    in
    let outcome = exec spec in
    write_manifest_opt ~file:metrics_out outcome;
    let r =
      match outcome.Runner.result with
      | Outcome.Done (Outcome.Completion r) -> r
      | _ -> assert false
    in
    let open Workloads.Completion in
    Printf.printf "protocol        %s\n" (proto_label protocol);
    Printf.printf "flows           %d sharing %d KB\n" n total_kb;
    Printf.printf "completion      mean %.2f ms  min %.2f  max %.2f  p99 %.2f\n"
      (r.mean_completion_s *. 1e3)
      (r.min_completion_s *. 1e3)
      (r.max_completion_s *. 1e3)
      (r.p99_completion_s *. 1e3);
    Printf.printf "stddev          %.2f ms\n" (r.stddev_completion_s *. 1e3);
    Printf.printf "timeouts/run    %.1f\n" r.timeouts_per_run
  in
  let n = Arg.(value & opt int 32 & info [ "n"; "flows" ] ~docv:"N") in
  let total = Arg.(value & opt int 1024 & info [ "total-kb" ] ~docv:"KB") in
  let repeats = Arg.(value & opt int 20 & info [ "repeats" ] ~docv:"R") in
  Cmd.v
    (Cmd.info "completion"
       ~doc:"Scatter-gather query completion time (paper Fig 15)")
    Term.(
      const run $ proto_arg $ g_arg $ kkb_arg $ k1kb_arg $ k2kb_arg $ seed_arg
      $ n $ total $ repeats $ metrics_out_arg)

(* --- stability --- *)

let stability_cmd =
  let run n rate_gbps rtt_us g k k1 k2 critical locus_csv =
    let c = rate_gbps *. 1e9 /. (float_of_int segment_bytes *. 8.) in
    let r0 = rtt_us *. 1e-6 in
    let kf = float_of_int k in
    let k1f = float_of_int k1 and k2f = float_of_int k2 in
    if critical then begin
      let dc =
        Control.Stability.critical_n ~c ~r0 ~g ~n_max:300
          ~verdict_at:(fun p -> Control.Stability.dctcp p ~k:kf)
          ()
      in
      let dt =
        Control.Stability.critical_n ~c ~r0 ~g ~n_max:300
          ~verdict_at:(fun p ->
            Control.Stability.dt_dctcp p ~k1:k1f ~k2:k2f)
          ()
      in
      let str = function Some n -> string_of_int n | None -> "> 300" in
      Printf.printf "critical N (oscillation onset):\n";
      Printf.printf "  DCTCP    (K=%d)        %s\n" k (str dc);
      Printf.printf "  DT-DCTCP (K1=%d,K2=%d)  %s\n" k1 k2 (str dt)
    end
    else begin
      let params = Control.Plant.params ~c ~n ~r0 ~g in
      Printf.printf "operating point: W0 = %.2f pkts, alpha0 = %.3f\n"
        (Control.Plant.w0 params)
        (Control.Plant.alpha0 params);
      let vdc = Control.Stability.dctcp params ~k:kf in
      let vdt = Control.Stability.dt_dctcp params ~k1:k1f ~k2:k2f in
      Format.printf "DCTCP    (K=%d):        %a, gain margin %.3f@." k
        Control.Stability.pp_verdict vdc
        (Control.Stability.dctcp_margin params ~k:kf);
      Format.printf "DT-DCTCP (K1=%d,K2=%d):  %a, gain margin %.3f@." k1 k2
        Control.Stability.pp_verdict vdt
        (Control.Stability.dt_dctcp_margin params ~k1:k1f ~k2:k2f)
    end;
    if locus_csv <> "" then begin
      let params = Control.Plant.params ~c ~n ~r0 ~g in
      let w = Control.Nyquist.log_space ~lo:1e2 ~hi:1e7 ~n:2000 in
      let locus =
        Control.Nyquist.plant_locus params ~k0:(1. /. kf) ~w
      in
      let oc = open_out locus_csv in
      output_string oc "w_rad_s,re,im\n";
      Array.iter
        (fun (p : Control.Nyquist.point) ->
          Printf.fprintf oc "%g,%g,%g\n" p.Control.Nyquist.param
            p.Control.Nyquist.z.Control.Cplx.re
            p.Control.Nyquist.z.Control.Cplx.im)
        locus;
      close_out oc;
      Printf.printf "locus written to %s\n" locus_csv
    end
  in
  let n = Arg.(value & opt int 60 & info [ "n"; "flows" ] ~docv:"N") in
  let rate = Arg.(value & opt float 10. & info [ "rate-gbps" ] ~docv:"GBPS") in
  let rtt = Arg.(value & opt float 100. & info [ "rtt-us" ] ~docv:"US") in
  let critical =
    Arg.(
      value & flag
      & info [ "critical" ] ~doc:"Scan N for the first predicted oscillation.")
  in
  let locus =
    Arg.(
      value & opt string ""
      & info [ "locus-csv" ] ~docv:"FILE" ~doc:"Dump the K0 G(jw) locus.")
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:"Describing-function stability analysis (paper Fig 9, Theorems 1-2)")
    Term.(
      const run $ n $ rate $ rtt $ g_arg $ k_arg $ k1_arg $ k2_arg $ critical
      $ locus)

(* --- fluid --- *)

let fluid_cmd =
  let run n rate_gbps rtt_us g k k1 k2 dt_proto t_end_ms csv =
    let c = rate_gbps *. 1e9 /. (float_of_int segment_bytes *. 8.) in
    let marking =
      if dt_proto then
        Fluid.Dctcp_fluid.Double (float_of_int k1, float_of_int k2)
      else Fluid.Dctcp_fluid.Single (float_of_int k)
    in
    let params =
      Fluid.Dctcp_fluid.make ~n ~c ~r0:(rtt_us *. 1e-6) ~g ~marking ()
    in
    let traj =
      Fluid.Dctcp_fluid.simulate params ~t_end:(t_end_ms *. 1e-3) ()
    in
    let discard = t_end_ms *. 1e-3 /. 3. in
    let mean, std = Fluid.Dctcp_fluid.queue_stats traj ~discard in
    Printf.printf "fluid model (%s)\n"
      (if dt_proto then Printf.sprintf "DT, K1=%d K2=%d" k1 k2
       else Printf.sprintf "single, K=%d" k);
    Printf.printf "queue mean %.2f pkts, stddev %.2f, swing amplitude %.2f\n"
      mean std
      (Fluid.Dctcp_fluid.oscillation_amplitude traj ~discard);
    if csv <> "" then begin
      let oc = open_out csv in
      output_string oc "t_s,w_pkts,alpha,q_pkts,p\n";
      Array.iteri
        (fun i t ->
          Printf.fprintf oc "%g,%g,%g,%g,%g\n" t traj.Fluid.Dctcp_fluid.w.(i)
            traj.Fluid.Dctcp_fluid.alpha.(i)
            traj.Fluid.Dctcp_fluid.q.(i)
            traj.Fluid.Dctcp_fluid.p.(i))
        traj.Fluid.Dctcp_fluid.times;
      close_out oc;
      Printf.printf "trajectory written to %s\n" csv
    end
  in
  let n = Arg.(value & opt int 10 & info [ "n"; "flows" ] ~docv:"N") in
  let rate = Arg.(value & opt float 10. & info [ "rate-gbps" ] ~docv:"GBPS") in
  let rtt = Arg.(value & opt float 100. & info [ "rtt-us" ] ~docv:"US") in
  let dt_flag =
    Arg.(value & flag & info [ "dt" ] ~doc:"Use the DT-DCTCP hysteresis.")
  in
  let t_end = Arg.(value & opt float 100. & info [ "t-end-ms" ] ~docv:"MS") in
  let csv =
    Arg.(
      value & opt string ""
      & info [ "csv" ] ~docv:"FILE" ~doc:"Dump the full trajectory.")
  in
  Cmd.v
    (Cmd.info "fluid" ~doc:"Integrate the DCTCP fluid model (paper Eqs 1-3)")
    Term.(
      const run $ n $ rate $ rtt $ g_arg $ k_arg $ k1_arg $ k2_arg $ dt_flag
      $ t_end $ csv)

(* --- deadline --- *)

let deadline_cmd =
  let run g kkb seed n bytes_kb repeats deadline_ms spread_ms d2tcp
      metrics_out =
    let config =
      {
        Workloads.Deadline.default_config with
        Workloads.Deadline.n_flows = n;
        bytes_per_flow = bytes_kb * 1024;
        repeats;
        deadline = Time.span_of_ms deadline_ms;
        deadline_spread = Time.span_of_ms spread_ms;
        seed;
      }
    in
    let spec =
      {
        Spec.name = "dtsim.deadline";
        protocol = Spec.Dctcp { g; k_bytes = kkb * 1024 };
        workload = Spec.Deadline { config; d2tcp };
        faults = None;
        buffer = Net.Buffer_mgr.Static;
      }
    in
    let outcome = exec spec in
    write_manifest_opt ~file:metrics_out outcome;
    let r =
      match outcome.Runner.result with
      | Outcome.Done (Outcome.Deadline r) -> r
      | _ -> assert false
    in
    let open Workloads.Deadline in
    Printf.printf "sender           %s\n"
      (if d2tcp then "D2TCP" else "DCTCP");
    Printf.printf "deadlines met    %.1f%%\n" (100. *. r.met_fraction);
    Printf.printf "completion mean  %.2f ms (p99 %.2f)\n"
      (r.mean_completion_s *. 1e3)
      (r.p99_completion_s *. 1e3);
    Printf.printf "timeouts/run     %.1f, unfinished flows %d\n"
      r.timeouts_per_run r.incomplete
  in
  let n = Arg.(value & opt int 16 & info [ "n"; "flows" ] ~docv:"N") in
  let bytes = Arg.(value & opt int 64 & info [ "bytes-kb" ] ~docv:"KB") in
  let repeats = Arg.(value & opt int 20 & info [ "repeats" ] ~docv:"R") in
  let deadline =
    Arg.(value & opt float 20. & info [ "deadline-ms" ] ~docv:"MS")
  in
  let spread = Arg.(value & opt float 20. & info [ "spread-ms" ] ~docv:"MS") in
  let d2tcp =
    Arg.(value & flag & info [ "d2tcp" ] ~doc:"Deadline-aware D2TCP backoff.")
  in
  Cmd.v
    (Cmd.info "deadline"
       ~doc:"Deadline-constrained fan-in, DCTCP or D2TCP senders (extension)")
    Term.(
      const run $ g_arg $ kkb_arg $ seed_arg $ n $ bytes $ repeats $ deadline
      $ spread $ d2tcp $ metrics_out_arg)

(* --- dynamic --- *)

let dynamic_cmd =
  let run proto g k k1 k2 seed rate_per_s segs duration_ms metrics_out =
    let protocol = sim_protocol proto g k k1 k2 in
    let config =
      {
        Workloads.Dynamic.default_config with
        Workloads.Dynamic.arrival_rate = rate_per_s;
        short_flow_segments = segs;
        duration = Time.span_of_ms duration_ms;
        seed;
      }
    in
    let spec =
      {
        Spec.name = "dtsim.dynamic";
        protocol;
        workload = Spec.Dynamic config;
        faults = None;
        buffer = Net.Buffer_mgr.Static;
      }
    in
    let outcome = exec spec in
    write_manifest_opt ~file:metrics_out outcome;
    let r =
      match outcome.Runner.result with
      | Outcome.Done (Outcome.Dynamic r) -> r
      | _ -> assert false
    in
    let open Workloads.Dynamic in
    Printf.printf "protocol           %s\n" (proto_label protocol);
    Printf.printf "short flows        %d started, %d completed\n"
      r.short_flows_started r.short_flows_completed;
    Printf.printf "FCT p50/p99/max    %.0f / %.0f / %.0f us\n"
      (r.fct_p50_s *. 1e6) (r.fct_p99_s *. 1e6) (r.fct_max_s *. 1e6);
    Printf.printf "background tput    %.2f Gbps\n"
      (r.background_throughput_bps /. 1e9);
    Printf.printf "queue              %.1f +- %.1f pkts\n" r.mean_queue_pkts
      r.std_queue_pkts
  in
  let rate =
    Arg.(value & opt float 5000. & info [ "arrivals-per-s" ] ~docv:"R")
  in
  let segs = Arg.(value & opt int 14 & info [ "short-segments" ] ~docv:"S") in
  let duration =
    Arg.(value & opt float 200. & info [ "duration-ms" ] ~docv:"MS")
  in
  Cmd.v
    (Cmd.info "dynamic"
       ~doc:"Mixed traffic: background long flows + Poisson short flows \
             (extension)")
    Term.(
      const run $ proto_arg $ g_arg $ k_arg $ k1_arg $ k2_arg $ seed_arg
      $ rate $ segs $ duration $ metrics_out_arg)

(* --- convergence --- *)

let convergence_cmd =
  let run proto g k k1 k2 seed n interval_ms metrics_out =
    let protocol = sim_protocol proto g k k1 k2 in
    let config =
      {
        Workloads.Convergence.default_config with
        Workloads.Convergence.n_flows = n;
        join_interval = Time.span_of_ms interval_ms;
        hold = Time.span_of_ms interval_ms;
        seed;
      }
    in
    let spec =
      {
        Spec.name = "dtsim.convergence";
        protocol;
        workload = Spec.Convergence config;
        faults = None;
        buffer = Net.Buffer_mgr.Static;
      }
    in
    let outcome = exec spec in
    write_manifest_opt ~file:metrics_out outcome;
    let r =
      match outcome.Runner.result with
      | Outcome.Done (Outcome.Convergence r) -> r
      | _ -> assert false
    in
    let module C = Workloads.Convergence in
    Printf.printf "protocol             %s\n" (proto_label protocol);
    Printf.printf "convergence times    %s ms\n"
      (String.concat ", "
         (Array.to_list
            (Array.map
               (fun t ->
                 if Float.is_nan t then "-"
                 else Printf.sprintf "%.0f" (t *. 1e3))
               r.C.convergence_times_s)));
    Printf.printf "Jain (all active)    %.3f\n" r.C.jain_steady;
    Printf.printf "utilization          %.3f\n" r.C.utilization_steady
  in
  let n = Arg.(value & opt int 5 & info [ "n"; "flows" ] ~docv:"N") in
  let interval =
    Arg.(value & opt float 500. & info [ "join-interval-ms" ] ~docv:"MS")
  in
  Cmd.v
    (Cmd.info "convergence"
       ~doc:"Fair-share convergence under flow churn (extension)")
    Term.(
      const run $ proto_arg $ g_arg $ k_arg $ k1_arg $ k2_arg $ seed_arg $ n
      $ interval $ metrics_out_arg)

(* --- sweep --- *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "dtsim: %s\n" msg;
      exit 2)
    fmt

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let specs_of_file file =
  match Obs.Json.parse (read_file file) with
  | Error e -> fail "%s: %s" file e
  | Ok (Obs.Json.List items) ->
      List.map
        (fun j ->
          match Spec.of_json j with
          | Ok s -> s
          | Error e -> fail "%s: %s" file e)
        items
  | Ok j -> (
      match Spec.of_json j with
      | Ok s -> [ s ]
      | Error e -> fail "%s: %s" file e)

let safe_filename name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

let write_outcome_files dir (outcomes : Runner.outcome array) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iteri
    (fun i o ->
      let base =
        Printf.sprintf "%03d-%s" i (safe_filename o.Runner.spec.Spec.name)
      in
      let manifest = Filename.concat dir (base ^ ".manifest.json") in
      let oc = open_out manifest in
      Obs.Manifest.write oc o.Runner.manifest;
      close_out oc;
      let result = Filename.concat dir (base ^ ".result.json") in
      let oc = open_out result in
      Obs.Json.write oc (Outcome.to_json o.Runner.result);
      output_char oc '\n';
      close_out oc)
    outcomes;
  Printf.printf "wrote %d manifest/result pairs under %s\n"
    (Array.length outcomes) dir

(* --verify-serial: the sweep's parallel outcomes must be bit-identical to
   a serial rerun, and every manifest must reconstruct its exact spec. *)
let verify_against_serial specs (outcomes : Runner.outcome array) =
  let serial = Runner.run ~jobs:1 specs in
  let failures = ref 0 in
  Array.iteri
    (fun i (o : Runner.outcome) ->
      let s = serial.(i) in
      if not (Outcome.equal o.Runner.result s.Runner.result) then begin
        incr failures;
        Printf.eprintf "MISMATCH %s: parallel and serial results differ\n"
          o.Runner.spec.Spec.name
      end;
      let reconstructed =
        match
          List.find_opt
            (fun (k, _) -> String.equal k "spec")
            o.Runner.manifest.Obs.Manifest.params
        with
        | None -> Error "manifest has no spec param"
        | Some (_, j) -> Spec.of_json j
      in
      match reconstructed with
      | Error e ->
          incr failures;
          Printf.eprintf "MANIFEST %s: %s\n" o.Runner.spec.Spec.name e
      | Ok s ->
          if not (Spec.equal s o.Runner.spec) then begin
            incr failures;
            Printf.eprintf
              "MANIFEST %s: reconstructed spec differs from original\n"
              o.Runner.spec.Spec.name
          end)
    outcomes;
  if !failures > 0 then fail "%d verification failure(s)" !failures;
  Printf.printf
    "verified: %d runs bit-identical to serial, all specs reconstruct \
     from manifests\n"
    (Array.length outcomes)

let sweep_cmd =
  let run entry spec_file jobs out_dir verify list_entries =
    if list_entries then begin
      Printf.printf "%-26s %s\n" "NAME" "DESCRIPTION";
      List.iter
        (fun (e : Exp.Registry.entry) ->
          Printf.printf "%-26s %s (%d specs)\n" e.Exp.Registry.name
            e.Exp.Registry.doc
            (List.length (e.Exp.Registry.specs ())))
        (Exp.Registry.all ());
      exit 0
    end;
    let specs =
      match (entry, spec_file) with
      | "", "" -> fail "pass one of --name (see --list) or --spec FILE"
      | name, "" -> (
          match Exp.Registry.find name with
          | Some e -> e.Exp.Registry.specs ()
          | None ->
              fail "unknown sweep %S; known: %s" name
                (String.concat ", " (Exp.Registry.names ())))
      | "", file -> specs_of_file file
      | _ -> fail "--name and --spec are mutually exclusive"
    in
    if specs = [] then fail "empty spec list";
    Printf.printf "sweep: %d specs, %d job(s)\n%!" (List.length specs) jobs;
    let outcomes, wall_s =
      Obs.Profile.time (fun () -> Runner.run ~jobs specs)
    in
    Array.iter
      (fun (o : Runner.outcome) ->
        Printf.printf "  %-40s %s\n" o.Runner.spec.Spec.name
          (Outcome.summary o.Runner.result))
      outcomes;
    let failed =
      Array.fold_left
        (fun acc (o : Runner.outcome) ->
          match o.Runner.result with
          | Outcome.Failed _ -> acc + 1
          | Outcome.Done _ -> acc)
        0 outcomes
    in
    Printf.printf "%d/%d runs ok in %.1fs wall clock\n"
      (Array.length outcomes - failed)
      (Array.length outcomes) wall_s;
    if out_dir <> "" then write_outcome_files out_dir outcomes;
    if verify then verify_against_serial specs outcomes;
    if failed > 0 then exit 1
  in
  let entry =
    Arg.(
      value & opt string ""
      & info [ "name" ] ~docv:"ENTRY"
          ~doc:"Run a named sweep from Exp.Registry (see --list).")
  in
  let spec_file =
    Arg.(
      value & opt string ""
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Run specs from FILE: one Exp.Spec JSON object, or a JSON list \
             of them. A manifest's \"spec\" param is accepted as-is.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Fan runs across N domains (results stay in spec order).")
  in
  let out_dir =
    Arg.(
      value & opt string ""
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Write per-run manifest and result JSON files under DIR.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify-serial" ]
          ~doc:
            "After the sweep, rerun serially and fail unless results are \
             bit-identical and every manifest reconstructs its spec.")
  in
  let list_entries =
    Arg.(value & flag & info [ "list" ] ~doc:"List registry sweeps and exit.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
        "Run a registry or file-defined spec list through Exp.Runner, \
         optionally across domains")
    Term.(
      const run $ entry $ spec_file $ jobs $ out_dir $ verify $ list_entries)

(* --- analyze: offline replay of a JSONL trace through the exact
   streaming analyzers a live run uses --- *)

let analyze_cmd =
  let module An = Obs.Analyze in
  let run file out =
    let ic = try open_in file with Sys_error e -> fail "%s" e in
    let next_line () = try Some (input_line ic) with End_of_file -> None in
    (* First non-blank line must be the header record: it carries the
       analyzer configuration the writing run used, which is what makes
       the offline result bit-identical to the online one. *)
    let line_no = ref 0 in
    let rec first_json () =
      match next_line () with
      | None -> fail "%s: empty trace file" file
      | Some l ->
          incr line_no;
          if String.trim l = "" then first_json ()
          else begin
            match Obs.Json.parse l with
            | Error e -> fail "%s:%d: %s" file !line_no e
            | Ok j -> j
          end
    in
    let header_json = first_json () in
    if not (An.Header.is_header header_json) then
      fail
        "%s: first record is not a trace header (traces written by `dtsim \
         longlived --trace-out` carry one; a headerless file cannot be \
         analyzed offline)"
        file;
    let header =
      match An.Header.of_json header_json with
      | Ok h -> h
      | Error e -> fail "%s: %s" file e
    in
    let cfg = header.An.Header.config in
    let missing =
      List.filter
        (fun c -> not (List.mem c header.An.Header.classes))
        An.required_classes
    in
    if missing <> [] then
      Printf.eprintf
        "dtsim analyze: warning: trace was recorded without class(es) %s; \
         the analysis will under-report them\n"
        (String.concat ", " (List.map Obs.Trace.cls_name missing));
    (* The on_sample hook collects the resampled series for the offline
       FFT cross-check; the analyzer itself never buffers it. *)
    let samples = ref [] in
    let an =
      An.create ~on_sample:(fun x -> samples := x :: !samples) cfg
    in
    let tracer = An.tracer an in
    let rec replay () =
      match next_line () with
      | None -> ()
      | Some l ->
          incr line_no;
          (if String.trim l <> "" then
             match Obs.Json.parse l with
             | Error e -> fail "%s:%d: %s" file !line_no e
             | Ok j -> (
                 match Obs.Trace.record_of_json j with
                 | Ok r -> Obs.Trace.emit tracer r
                 | Error e -> fail "%s:%d: %s" file !line_no e));
          replay ()
    in
    replay ();
    close_in ic;
    An.finalize an;
    let s = An.summary an in
    Printf.printf "trace               %s (%d records, %.3f s)\n" file
      s.An.records s.An.duration_s;
    (match cfg.An.band_bytes with
    | Some (lo, hi) ->
        Printf.printf "marking band        [%d, %d] bytes\n" lo hi
    | None ->
        Printf.printf "marking band        none (cycle detector disabled)\n");
    Printf.printf "occupancy           %.2f pkts mean, %.2f std\n"
      s.An.occ_mean_pkts s.An.occ_std_pkts;
    Printf.printf
      "cycles              %d (amplitude mean %.1f pkts, max %.1f, period \
       mean %.3f ms)\n"
      s.An.cycles s.An.amp_mean_pkts s.An.amp_max_pkts
      (s.An.period_mean_s *. 1e3);
    Printf.printf "marking flip rate   %.1f Hz\n" s.An.flip_rate_hz;
    Printf.printf "sync index          mean %.3f, max %.3f\n" s.An.sync_mean
      s.An.sync_max;
    (match (s.An.dominant_freq_hz, An.spectrum_note an) with
    | Some f, _ ->
        Printf.printf "dominant frequency  %.1f Hz (autocorr, period %.3f ms)\n"
          f (1e3 /. f)
    | None, Some note -> Printf.printf "dominant frequency  none: %s\n" note
    | None, None -> Printf.printf "dominant frequency  none\n");
    (* Independent cross-check: FFT over the buffered series. Silence
       would be indistinguishable from "no oscillation", so the two
       degenerate verdicts print their explicit diagnostics. *)
    let series = Array.of_list (List.rev !samples) in
    let sample_rate_hz = 1e9 /. Int64.to_float cfg.An.sample_period in
    (match Stats.Spectrum.analyze ~samples:series ~sample_rate_hz with
    | Stats.Spectrum.Peak p ->
        Printf.printf "FFT cross-check     %.1f Hz\n"
          p.Stats.Spectrum.frequency_hz
    | v -> (
        match Stats.Spectrum.verdict_note v with
        | Some note -> Printf.printf "FFT cross-check     none: %s\n" note
        | None -> assert false));
    if out <> "" then begin
      let oc = open_out out in
      Obs.Json.write oc (An.to_json an);
      output_char oc '\n';
      close_out oc;
      Printf.printf "analysis            %s\n" out
    end
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL event trace written by `dtsim longlived --trace-out`.")
  in
  let out =
    Arg.(
      value & opt string ""
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the analysis JSON block to FILE (bit-identical to the \
             block an online `--analysis-out` run embeds).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Replay a JSONL trace offline through the same streaming \
          oscillation analyzers a live run tees into")
    Term.(const run $ file $ out)

let () =
  let doc =
    "reproduction of 'Ease the Queue Oscillation: Analysis and Enhancement \
     of DCTCP' (ICDCS 2013)"
  in
  let info = Cmd.info "dtsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            longlived_cmd;
            incast_cmd;
            completion_cmd;
            stability_cmd;
            fluid_cmd;
            deadline_cmd;
            dynamic_cmd;
            convergence_cmd;
            sweep_cmd;
            analyze_cmd;
          ]))
