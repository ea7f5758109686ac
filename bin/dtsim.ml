(* dtsim: command-line driver for the DT-DCTCP reproduction.

   `dtsim sweep` runs Exp.Spec values (a registry family, one registry
   spec by name, or a spec file) with `--set PATH=JSON` overrides through
   Exp.Runner: one spec, one manifest. The defaults family holds one spec
   per workload (`--name dtsim.longlived`, ...). `dtsim claim` evaluates
   the paper's evaluation, the Exp.Claim declarations over the same
   registry specs, and writes each claim's BENCH_<name>.json; `dtsim
   model` prints the closed-form sections (Model). The stability/fluid
   subcommands are closed-form analysis at one operating point;
   `analyze` replays a trace offline. *)

open Cmdliner
module Spec = Exp.Spec
module Runner = Exp.Runner
module Outcome = Exp.Outcome

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "dtsim: %s\n" msg;
      exit 2)
    fmt

(* The closed-form libraries (Control, Fluid) reject bad parameters with
   [Invalid_argument]; from the command line that is a usage error. *)
let params_checked f = try f () with Invalid_argument msg -> fail "%s" msg

let open_out_or_fail file = try open_out file with Sys_error e -> fail "%s" e

let write_json_and_close oc j =
  Obs.Json.write oc j;
  output_char oc '\n';
  close_out oc

(* --- marking arguments of the closed-form analyses --- *)

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

let segment_bytes = 1500

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Fan runs across N domains (results stay in spec order).")

let check_jobs jobs = if jobs < 1 then fail "-j %d: need at least one job" jobs

(* Names picked from a known list, kept in the list's order; [] picks
   all. *)
let select ~what known name_of names =
  let names_known = List.map name_of known in
  List.iter
    (fun n ->
      if not (List.mem n names_known) then
        fail "unknown %s %S; known: %s" what n (String.concat ", " names_known))
    names;
  List.filter (fun x -> names = [] || List.mem (name_of x) names) known

let names_arg ~docv doc =
  Arg.(value & pos_all string [] & info [] ~docv ~doc)

(* --- stability --- *)

let stability_cmd =
  let run n rate_gbps rtt_us g k k1 k2 critical locus_csv =
    params_checked @@ fun () ->
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
      let vdc = Control.Stability.dctcp params ~k:kf in
      let vdt = Control.Stability.dt_dctcp params ~k1:k1f ~k2:k2f in
      Printf.printf "operating point: W0 = %.2f pkts, alpha0 = %.3f\n"
        (Control.Plant.w0 params)
        (Control.Plant.alpha0 params);
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
      let oc = open_out_or_fail locus_csv in
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
    params_checked @@ fun () ->
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
      Fluid.Dctcp_fluid.simulate params ~t_end:(t_end_ms *. 1e-3)
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
      let oc = open_out_or_fail csv in
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
(* --- sweep --- *)

let read_file file =
  let ic = try open_in_bin file with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let specs_of_file file =
  let spec j =
    match Spec.of_json j with Ok s -> s | Error e -> fail "%s: %s" file e
  in
  match Obs.Json.parse (read_file file) with
  | Error e -> fail "%s: %s" file e
  | Ok (Obs.Json.List items) -> List.map spec items
  | Ok j -> [ spec j ]

let select_specs entry spec_file =
  match (entry, spec_file) with
  | "", "" -> fail "pass one of --name (see --list) or --spec FILE"
  | name, "" -> (
      match Exp.Registry.select name with
      | Some specs -> specs
      | None ->
          fail "unknown sweep or spec %S; known sweeps: %s" name
            (String.concat ", " (Exp.Registry.names ())))
  | "", file -> specs_of_file file
  | _ -> fail "--name and --spec are mutually exclusive"

(* --set PATH=JSON: the value is any JSON the spec already holds at
   PATH; Spec.override rejects paths the spec does not have. *)
let parse_set arg =
  match String.index_opt arg '=' with
  | None -> fail "--set %S: expected PATH=JSON" arg
  | Some i -> (
      let path = String.sub arg 0 i in
      let value = String.sub arg (i + 1) (String.length arg - i - 1) in
      match Obs.Json.parse value with
      | Ok j -> (path, j)
      | Error e -> fail "--set %s: %s" path e)

let apply_sets sets specs =
  if sets = [] then specs
  else
    let sets = List.map parse_set sets in
    List.map
      (fun (s : Spec.t) ->
        match Spec.override s sets with
        | Ok s' -> s'
        | Error e -> fail "%s: %s" s.Spec.name e)
      specs

let parse_trace_events = function
  | "" -> None
  | s ->
      Some
        (List.map
           (fun name ->
             match Obs.Trace.cls_of_name name with
             | Some c -> c
             | None ->
                 fail "unknown trace event %S (known: %s)" name
                   (String.concat ", "
                      (List.map Obs.Trace.cls_name Obs.Trace.all_classes)))
           (String.split_on_char ',' s))

(* The observation flags watch one run. The tracer streams JSONL behind
   a header carrying the analyzer config this spec implies plus the
   tracer's class filter, so `dtsim analyze` can replay the file with
   the exact online parameters; the self-profile needs no config. The
   flags are checked and every output file opened here, before the run,
   so a bad path costs no simulation; the returned thunk runs the spec. *)
let observed_run specs ~trace_out ~trace_events ~analysis_out ~profile_out =
  let spec =
    match specs with
    | [ s ] -> s
    | _ ->
        fail "--trace-out/--analysis-out/--profile-out observe one run; %d \
              specs selected"
          (List.length specs)
  in
  let acfg () =
    match Runner.analysis_config spec with
    | Some c -> c
    | None ->
        fail "%s: the %s workload has no trace analysis (the dumbbell's \
              longlived, dynamic and convergence kinds have)"
          spec.Spec.name
          (Spec.workload_name spec.Spec.workload)
  in
  if trace_out <> "" || analysis_out <> "" then ignore (acfg ());
  if trace_events <> "" && trace_out = "" then
    fail "--trace-events needs --trace-out";
  let classes = parse_trace_events trace_events in
  let out file =
    if file = "" then None else Some (file, open_out_or_fail file)
  in
  let trace_oc = out trace_out in
  let analysis_oc = out analysis_out in
  let profile_oc = out profile_out in
  let tracer =
    match trace_oc with
    | None -> Obs.Trace.null
    | Some (_, oc) -> Obs.Analyze.jsonl_tracer ?classes (acfg ()) oc
  in
  let profiler = Option.map (fun _ -> Obs.Selfprof.create ()) profile_oc in
  let on_sim = Option.map (fun p sim -> Obs.Selfprof.attach p sim) profiler in
  fun () ->
    let o =
      Runner.run_one ~tracer ?on_sim ~analyze:(analysis_oc <> None) spec
    in
    Option.iter
      (fun (file, oc) ->
        close_out oc;
        Printf.printf "event trace         %s\n" file)
      trace_oc;
    (match (analysis_oc, o.Runner.manifest.Obs.Manifest.analysis) with
    | Some (file, oc), Some analysis ->
        write_json_and_close oc analysis;
        Printf.printf "analysis            %s\n" file
    | _ -> ());
    (match (profile_oc, profiler) with
    | Some (file, oc), Some p ->
        write_json_and_close oc (Obs.Selfprof.to_json p);
        Printf.printf "engine profile      %s (%d events, %d timed)\n" file
          (Obs.Selfprof.total p)
          (Obs.Selfprof.sampled_total p)
    | _ -> ());
    [| o |]

let safe_filename name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

let prepare_out_dir dir =
  if not (Sys.file_exists dir) then (
    try Sys.mkdir dir 0o755 with Sys_error e -> fail "%s" e)
  else if not (Sys.is_directory dir) then fail "%s: not a directory" dir

let write_outcome_files dir (outcomes : Runner.outcome array) =
  Array.iteri
    (fun i o ->
      let base =
        Filename.concat dir
          (Printf.sprintf "%03d-%s" i (safe_filename o.Runner.spec.Spec.name))
      in
      let oc = open_out_or_fail (base ^ ".manifest.json") in
      Obs.Manifest.write oc o.Runner.manifest;
      close_out oc;
      write_json_and_close
        (open_out_or_fail (base ^ ".result.json"))
        (Outcome.to_json o.Runner.result))
    outcomes;
  Printf.printf "wrote %d manifest/result pairs under %s\n"
    (Array.length outcomes) dir

(* --verify-serial: re-run serially the spec each parallel outcome's
   manifest records. Every decoded spec must equal the one that ran, and
   its result must be bit-identical, so one re-run checks both -j
   identity and replay from manifests. *)
let verify_against_serial (outcomes : Runner.outcome array) =
  let failures = ref 0 in
  let failure tag (o : Runner.outcome) msg =
    incr failures;
    Printf.eprintf "%s %s: %s\n" tag o.Runner.spec.Spec.name msg
  in
  let decode (o : Runner.outcome) =
    match List.assoc_opt "spec" o.Runner.manifest.Obs.Manifest.params with
    | None -> Error "manifest has no spec param"
    | Some j -> Spec.of_json j
  in
  let decoded =
    Array.to_list outcomes
    |> List.filter_map (fun (o : Runner.outcome) ->
           match decode o with
           | Error e ->
               failure "MANIFEST" o e;
               None
           | Ok s ->
               if not (Spec.equal s o.Runner.spec) then
                 failure "MANIFEST" o
                   "decoded spec differs from the one that ran";
               Some (o, s))
  in
  let serial = Runner.run ~jobs:1 (List.map snd decoded) in
  List.iteri
    (fun i ((o : Runner.outcome), _) ->
      if not (Outcome.equal o.Runner.result serial.(i).Runner.result) then
        failure "MISMATCH" o
          "the serial re-run of its manifest's spec gives a different result")
    decoded;
  if !failures > 0 then fail "%d verification failure(s)" !failures;
  Printf.printf
    "verified: %d runs re-run serially from their manifests' specs, \
     bit-identical\n"
    (Array.length outcomes)

let sweep_cmd =
  let run entry spec_file sets jobs out_dir verify list_entries trace_out
      trace_events analysis_out profile_out =
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
    check_jobs jobs;
    let specs = apply_sets sets (select_specs entry spec_file) in
    if specs = [] then fail "empty spec list";
    let run_specs =
      if
        trace_out = "" && trace_events = "" && analysis_out = ""
        && profile_out = ""
      then fun () -> Runner.run ~jobs specs
      else
        observed_run specs ~trace_out ~trace_events ~analysis_out
          ~profile_out
    in
    if out_dir <> "" then prepare_out_dir out_dir;
    Printf.printf "sweep: %d specs, %d job(s)\n%!" (List.length specs) jobs;
    let outcomes, wall_s = Obs.Profile.time run_specs in
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
    if verify then verify_against_serial outcomes;
    if failed > 0 then exit 1
  in
  let string_opt names ~docv doc =
    Arg.(value & opt string "" & info names ~docv ~doc)
  in
  let entry =
    string_opt [ "name" ] ~docv:"NAME"
      "Run a named sweep from Exp.Registry (see --list), or the one \
       registry spec called NAME (e.g. dtsim.longlived, \
       fig_sweep/dt-dctcp/n=60)."
  in
  let spec_file =
    string_opt [ "spec" ] ~docv:"FILE"
      "Run specs from FILE: one Exp.Spec JSON object, or a JSON list of \
       them. A manifest's \"spec\" param is accepted as-is."
  in
  let sets =
    Arg.(
      value & opt_all string []
      & info [ "set" ] ~docv:"PATH=JSON"
          ~doc:
            "Replace the value at a dotted path of every selected spec's \
             JSON before it runs: workload.n_flows=60, \
             workload.trace_sampling=20000 (ns), or a whole \
             protocol={\"kind\":\"dt-dctcp\",...} object. Repeatable; the \
             path must already exist in the spec.")
  in
  let out_dir =
    string_opt [ "out-dir" ] ~docv:"DIR"
      "Write per-run manifest and result JSON files under DIR."
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify-serial" ]
          ~doc:
            "After the sweep, re-run serially the spec each run's manifest \
             records; fail unless it decodes to the spec that ran and its \
             result is bit-identical.")
  in
  let list_entries =
    Arg.(value & flag & info [ "list" ] ~doc:"List registry sweeps and exit.")
  in
  let trace_out =
    string_opt [ "trace-out" ] ~docv:"FILE"
      "Write the structured event stream (drops, marks, hysteresis flips, \
       cwnd cuts, RTOs, ...) of the one selected run to FILE as JSON \
       lines, after a header record `dtsim analyze` reads."
  in
  let trace_events =
    string_opt [ "trace-events" ] ~docv:"LIST"
      "Comma-separated event classes for --trace-out (e.g. \
       drop,mark,mark_state_flip). Default: all classes."
  in
  let analysis_out =
    string_opt [ "analysis-out" ] ~docv:"FILE"
      "Run the streaming oscillation analyzer online (teed into the trace \
       stream) and write its JSON block to FILE. The same block is \
       embedded in the run's manifest, and `dtsim analyze` on a \
       --trace-out file reproduces it bit for bit."
  in
  let profile_out =
    string_opt [ "profile-out" ] ~docv:"FILE"
      "Attach the sampled per-event-class engine self-profiler and write \
       its JSON report to FILE."
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run registry or file-defined specs through Exp.Runner, optionally \
          across domains")
    Term.(
      const run $ entry $ spec_file $ sets $ jobs_arg $ out_dir $ verify
      $ list_entries $ trace_out $ trace_events $ analysis_out $ profile_out)

(* --- claim: the paper's evaluation, one Exp.Claim declaration at a time --- *)

let claim_cmd =
  let run names quick jobs =
    check_jobs jobs;
    let claims =
      select ~what:"claim" Exp.Claim.all (fun (c : Exp.Claim.t) -> c.name) names
    in
    Printf.printf
      "DT-DCTCP reproduction harness (%s mode)\n\
       Paper: Ease the Queue Oscillation: Analysis and Enhancement of DCTCP \
       (ICDCS 2013)\n"
      (if quick then "quick" else "full");
    let hold (c : Exp.Claim.t) =
      Model.section_header c.title;
      let r = Exp.Claim.evaluate ~jobs ~quick c in
      Model.print_table r.table;
      print_string (c.epilogue r);
      List.iter
        (fun v -> Printf.printf "  %s\n" (Exp.Claim.verdict_to_string v))
        r.verdicts;
      let file = Printf.sprintf "BENCH_%s.json" c.name in
      let oc = open_out_or_fail file in
      Obs.Manifest.write oc r.manifest;
      close_out oc;
      Printf.printf "[manifest %s]\n\n[%s done in %.1fs]\n%!" file c.name
        r.manifest.wall_clock_s;
      List.for_all
        (fun (v : Exp.Claim.verdict) ->
          match v.status with Holds -> true | Fails | Invalid -> false)
        r.verdicts
    in
    let held, wall_s =
      Obs.Profile.time (fun () ->
          List.fold_left (fun ok c -> hold c && ok) true claims)
    in
    Printf.printf "\nTotal: %.1fs\n" wall_s;
    if not held then begin
      prerr_endline "dtsim: a claim has a failing or invalid point";
      exit 1
    end
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Run Exp.Claim.quick of every spec: shorter runs, same shape.")
  in
  Cmd.v
    (Cmd.info "claim"
       ~doc:
         "Evaluate the paper's claims (all, or the named ones, in \
          declaration order): each prints its table, epilogue and verdicts \
          and writes BENCH_<name>.json; exits 1 on a failing or invalid \
          point")
    Term.(
      const run
      $ names_arg ~docv:"CLAIM" "Claims to evaluate (default: all)."
      $ quick $ jobs_arg)

(* --- model: the closed-form sections --- *)

let model_cmd =
  let run names =
    List.iter
      (fun (_, section) -> section ())
      (select ~what:"model section" Model.sections fst names)
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Print the closed-form sections (fig2 fig_df fig9 df_vs_fluid): \
          marking strategies, describing functions, Nyquist analysis")
    Term.(
      const run
      $ names_arg ~docv:"SECTION" "Sections to print (default: all).")

(* --- analyze: offline replay of a JSONL trace through the exact
   streaming analyzers a live run uses --- *)

let analyze_cmd =
  let module An = Obs.Analyze in
  let run file out =
    let ic = try open_in file with Sys_error e -> fail "%s" e in
    (* The on_sample hook collects the resampled series for the offline
       FFT cross-check; the analyzer itself never buffers it. *)
    let samples = ref [] in
    let header, an =
      match An.replay ~on_sample:(fun x -> samples := x :: !samples) ic with
      | Ok r -> r
      | Error e -> fail "%s: %s" file e
    in
    close_in ic;
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
    let sample_rate_hz =
      1e9 /. float_of_int (Engine.Time.span_to_int_ns cfg.An.sample_period)
    in
    (match Stats.Spectrum.analyze ~samples:series ~sample_rate_hz with
    | Stats.Spectrum.Peak p ->
        Printf.printf "FFT cross-check     %.1f Hz\n"
          p.Stats.Spectrum.frequency_hz
    | v -> (
        match Stats.Spectrum.verdict_note v with
        | Some note -> Printf.printf "FFT cross-check     none: %s\n" note
        | None -> assert false));
    if out <> "" then begin
      write_json_and_close (open_out_or_fail out) (An.to_json an);
      Printf.printf "analysis            %s\n" out
    end
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL event trace written by `dtsim sweep --trace-out`.")
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
  let cmd =
    Cmd.group info
      [
        sweep_cmd;
        claim_cmd;
        model_cmd;
        stability_cmd;
        fluid_cmd;
        analyze_cmd;
      ]
  in
  (* A command line cmdliner rejects is a usage error: exit 2, after
     cmdliner's own `dtsim:` message. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
