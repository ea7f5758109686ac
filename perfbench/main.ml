(* Layered sweep benchmark (see README.md).

   main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
            [--write-reference]

   --trace 0 times whole registry sweeps with nothing attached and
   prints the end-to-end metrics; --trace 1 prints the per-layer
   metrics: manifest counts, a self-profiled pass against an untraced
   one, and the rows timed at module boundaries. Each metric is printed
   as median, quartiles and sample count; the last line is one JSON
   object with the medians. --set-up-only is the child process that
   setup_s times. *)

module D = Perfbench.Digests

let now = Unix.gettimeofday
let reference_file = "perfbench/reference_digests.json"
let ratio a b = if b = 0. then 0. else a /. b

(* --- metrics and the report --- *)

type stats = { median : float; q1 : float; q3 : float; n : int }
type metric = { name : string; unit : string; stats : stats }

let metric name unit values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let at = Stats.Percentile.of_sorted a in
  {
    name;
    unit;
    stats = { median = at 50.; q1 = at 25.; q3 = at 75.; n = Array.length a };
  }

let report ~attempted ~failed metrics =
  Printf.printf "%-42s %14s %14s %14s %4s  %s\n" "metric" "median" "q1" "q3"
    "n" "unit";
  List.iter
    (fun m ->
      Printf.printf "%-42s %14.6g %14.6g %14.6g %4d  %s\n" m.name
        m.stats.median m.stats.q1 m.stats.q3 m.stats.n m.unit)
    metrics;
  let value m =
    ( m.name,
      Obs.Json.Obj
        [ ("value", Obs.Json.Float m.stats.median); ("unit", Obs.Json.String m.unit) ] )
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (failed = 0));
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj (List.map value metrics));
          ]))

(* --- one sweep through Exp.Runner --- *)

(* [wall_s] and [cpu_s] are scaled to a reference-speed host (see
   Host_speed); [host_wall_s] is the sweep's unscaled host time. *)
type sweep = {
  wall_s : float;
  cpu_s : float;
  host_wall_s : float;
  slowdown : float;  (** Host time over reference-speed time. *)
  minor_words : float;
  events : int;
  manifests : Obs.Manifest.t array;
  entries : D.entry array;
  crashed : bool array;  (** [Outcome.Failed] runs. *)
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let check_outputs (outcomes : Exp.Runner.outcome array) =
  ( Array.map
      (fun (o : Exp.Runner.outcome) ->
        D.entry o.Exp.Runner.manifest
          ~result:(Exp.Outcome.to_json o.Exp.Runner.result))
      outcomes,
    Array.map
      (fun (o : Exp.Runner.outcome) ->
        match o.Exp.Runner.result with
        | Exp.Outcome.Failed _ -> true
        | Exp.Outcome.Done _ -> false)
      outcomes )

let sweep_of outcomes ~wall_s ~cpu_s ~host_wall_s ~minor_words =
  let manifests = Array.map (fun o -> o.Exp.Runner.manifest) outcomes in
  let entries, crashed = check_outputs outcomes in
  {
    wall_s;
    cpu_s;
    host_wall_s;
    slowdown = ratio host_wall_s wall_s;
    minor_words;
    events =
      Array.fold_left (fun acc m -> acc + m.Obs.Manifest.events) 0 manifests;
    manifests;
    entries;
    crashed;
  }

(* The timed sweep: one Exp.Runner.run ~jobs:1 call per spec (the work
   Runner.run ~jobs:1 does over the whole list), with the host-speed
   probe before the first spec and after every spec. Only the Runner
   calls are timed; each spec's seconds are scaled by the mean of the
   two probes around it. *)
let run_sweep (fam : Families.t) specs =
  let wall = ref 0. and words = ref 0. in
  let scaled_wall = ref 0. and scaled_cpu = ref 0. in
  let clock = Host_speed.clock () in
  let outcomes =
    List.map
      (fun spec ->
        let w0 = minor_words () and c0 = cpu_s () in
        let outcomes, wall_s =
          Obs.Profile.time (fun () ->
              Exp.Runner.run ~jobs:1 ~analyze:fam.Families.analyze [ spec ])
        in
        let cpu_s = cpu_s () -. c0 in
        words := !words +. (minor_words () -. w0);
        let scale = Host_speed.scale clock in
        wall := !wall +. wall_s;
        scaled_wall := !scaled_wall +. (wall_s *. scale);
        scaled_cpu := !scaled_cpu +. (cpu_s *. scale);
        outcomes.(0))
      specs
  in
  sweep_of (Array.of_list outcomes) ~wall_s:!scaled_wall ~cpu_s:!scaled_cpu
    ~host_wall_s:!wall ~minor_words:!words

(* The fan-out sweep: every spec in one Exp.Runner.run ~jobs call. Its
   host time is not scaled: a probe on one domain does not track two
   busy cores. *)
let run_parallel (fam : Families.t) ~jobs specs =
  let w0 = minor_words () and c0 = cpu_s () in
  let outcomes, wall_s =
    Obs.Profile.time (fun () ->
        Exp.Runner.run ~jobs ~analyze:fam.Families.analyze specs)
  in
  sweep_of outcomes ~wall_s ~cpu_s:(cpu_s () -. c0) ~host_wall_s:wall_s
    ~minor_words:(minor_words () -. w0)

(* Extra runs checked against one spec's expected digests: the warm-up
   and the profiled passes. *)
type single = { index : int; entry : D.entry; crash : bool }

let singles indices (outcomes : Exp.Runner.outcome array) =
  let entries, crashed = check_outputs outcomes in
  List.mapi
    (fun k index -> { index; entry = entries.(k); crash = crashed.(k) })
    indices

(* Every run counts once in [attempted]; it fails when it raised or its
   digests differ from the expected ones: the stored reference at the
   default seed, otherwise the first serial sweep of this process. *)
let tally ~expected sweeps singles =
  let attempted = ref 0 and failed = ref 0 in
  let count bad =
    incr attempted;
    if bad then incr failed
  in
  List.iter
    (fun s ->
      let differs = D.mismatches ~expected s.entries in
      Array.iteri (fun i crash -> count (crash || differs.(i))) s.crashed)
    sweeps;
  List.iter
    (fun r ->
      count
        (r.crash
        || r.index >= Array.length expected
        || not (D.equal expected.(r.index) r.entry)))
    singles;
  (!attempted, !failed)

(* --- reference digests --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_references () =
  if not (Sys.file_exists reference_file) then []
  else
    match Obs.Json.parse (read_file reference_file) with
    | Ok (Obs.Json.Obj fields) -> fields
    | Ok _ | Error _ -> failwith (reference_file ^ ": not a JSON object")

let reference (fam : Families.t) =
  match List.assoc_opt fam.Families.name (load_references ()) with
  | None ->
      Printf.eprintf "no reference digests for %s in %s\n%!" fam.Families.name
        reference_file;
      [||]
  | Some j -> (
      match Option.map D.of_json_entries (Obs.Json.member "runs" j) with
      | Some (Ok entries) -> entries
      | Some (Error e) -> failwith (reference_file ^ ": " ^ e)
      | None -> failwith (reference_file ^ ": no runs for " ^ fam.Families.name))

(* One workload per top-level key, one run per line, so a re-baseline
   diff names the specs whose outputs changed. *)
let write_references fields =
  let workload (name, j) =
    let runs =
      match Obs.Json.member "runs" j with
      | Some (Obs.Json.List runs) -> runs
      | _ -> []
    in
    Printf.sprintf "  %S: {\"seed\": \"%Ld\", \"runs\": [\n%s\n  ]}" name
      Families.default_seed
      (String.concat ",\n"
         (List.map (fun r -> "    " ^ Obs.Json.to_string r) runs))
  in
  let oc = open_out_bin reference_file in
  output_string oc
    ("{\n" ^ String.concat ",\n" (List.map workload fields) ^ "\n}\n");
  close_out oc

let rebaseline (fam : Families.t) specs =
  let s = run_sweep fam specs in
  let parallel = run_parallel fam ~jobs:2 specs in
  if Array.exists Fun.id s.crashed then failwith "a run failed";
  if Array.exists Fun.id (D.mismatches ~expected:s.entries parallel.entries)
  then failwith "parallel and serial digests differ";
  let entry = Obs.Json.Obj [ ("runs", D.to_json s.entries) ] in
  let others =
    List.filter
      (fun (k, _) -> not (String.equal k fam.Families.name))
      (load_references ())
  in
  write_references
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       ((fam.Families.name, entry) :: others));
  Printf.printf "wrote %d reference digests for %s to %s\n"
    (Array.length s.entries) fam.Families.name reference_file

(* --- set-up --- *)

(* Expand the registry family at the benchmark's seed and check that
   every spec survives the manifest's JSON round trip. *)
let set_up (fam : Families.t) ~seed =
  let specs = Families.specs fam ~seed in
  List.iter
    (fun s ->
      match Exp.Spec.of_json (Exp.Spec.to_json s) with
      | Ok s' when Exp.Spec.equal s s' -> ()
      | Ok _ | Error _ -> failwith (s.Exp.Spec.name ^ ": spec does not round-trip"))
    specs;
  specs

(* Run the first spec once, untimed, so lazy initialisation is done
   before the timed sweeps; its output is checked like every other run. *)
let warm_up (fam : Families.t) specs =
  singles [ 0 ]
    [| Exp.Runner.run_one ~analyze:fam.Families.analyze (List.hd specs) |]

let set_ups = 21

(* setup_s: seconds from process start to the start of the timed
   region. Each sample starts this executable with --set-up-only, which
   sets up (runtime and module initialisation included) and exits where
   the timed region would begin; like a chunk of a sweep, it is scaled
   by the host-speed probes around it. *)
let time_set_ups (fam : Families.t) ~seed =
  let argv =
    [|
      Sys.executable_name;
      "--workload";
      fam.Families.name;
      "--seed";
      Int64.to_string seed;
      "--set-up-only";
    |]
  in
  let clock = Host_speed.clock () in
  List.init set_ups (fun _ ->
      let t0 = now () in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
          Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 ->
          let host_s = now () -. t0 in
          host_s *. Host_speed.scale clock
      | _ -> failwith "set-up process failed")

(* --- end-to-end run --- *)

(* VmHWM: the process's resident-set high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let until_elapsed ~seconds ~min_runs f =
  let t0 = now () in
  let rec go acc =
    if List.length acc >= min_runs && now () -. t0 >= seconds then List.rev acc
    else go (f (List.length acc) :: acc)
  in
  go []

let end_to_end (fam : Families.t) ~seed ~seconds ~expected =
  let setup_s = time_set_ups fam ~seed in
  let specs = set_up fam ~seed in
  let warm = warm_up fam specs in
  (* Peak memory after a fixed amount of work: set-up plus two sweeps,
     however many sweeps the time budget allows. *)
  let peak = ref 0. in
  let sweeps =
    until_elapsed ~seconds ~min_runs:2 (fun k ->
        let s = run_sweep fam specs in
        if k = 1 then peak := peak_rss_mb ();
        s)
  in
  let expected = Option.value expected ~default:(List.hd sweeps).entries in
  let attempted, failed = tally ~expected sweeps warm in
  let per_sweep f = List.map f sweeps in
  let events s = float_of_int s.events in
  let median f = Stats.Percentile.of_list (per_sweep f) 50. in
  Printf.printf "unscaled host wall_s %.4g, host slowdown %.3f (medians of %d)\n"
    (median (fun s -> s.host_wall_s))
    (median (fun s -> s.slowdown))
    (List.length sweeps);
  ( attempted,
    failed,
    [
      metric "wall_s" "s" (per_sweep (fun s -> s.wall_s));
      metric "events_per_s" "1/s" (per_sweep (fun s -> events s /. s.wall_s));
      metric "cpu_s" "s" (per_sweep (fun s -> s.cpu_s));
      metric "alloc_words_per_event" "words"
        (per_sweep (fun s -> ratio s.minor_words (events s)));
      metric "peak_rss_mb" "MB" [ !peak ];
      metric "setup_s" "s" setup_s;
      metric "ok_share" "share"
        [ 1. -. ratio (float_of_int failed) (float_of_int attempted) ];
    ] )

(* --- per-layer run --- *)

let sum_metrics manifests keep =
  Array.fold_left
    (fun acc m ->
      List.fold_left
        (fun acc (k, v) -> if keep k then acc +. v else acc)
        acc m.Obs.Manifest.metrics)
    0. manifests

let queue_metric suffix k =
  String.starts_with ~prefix:"queue." k && String.ends_with ~suffix k

let enqueues manifests = sum_metrics manifests (queue_metric ".enqueues")
let marks manifests = sum_metrics manifests (queue_metric ".marks")

(* Counts from the serial sweep [s]; the runner metrics from [runner],
   the fan-out sweep on [jobs] domains where the workload has one. *)
let counts (s : sweep) ~runner ~jobs =
  let sum k = sum_metrics s.manifests (String.equal k) in
  let enqueues = enqueues s.manifests and marks = marks s.manifests in
  let busy_s =
    Array.fold_left
      (fun acc m -> acc +. m.Obs.Manifest.wall_clock_s)
      0. runner.manifests
  in
  let heap_high_water =
    Array.fold_left
      (fun acc m ->
        match List.assoc_opt "engine.heap_high_water" m.Obs.Manifest.metrics with
        | Some v -> Float.max acc v
        | None -> acc)
      0. s.manifests
  in
  let max_spec_s =
    Array.fold_left
      (fun acc m -> Float.max acc m.Obs.Manifest.wall_clock_s)
      0. runner.manifests
  in
  [
    metric "engine.events" "count" [ float_of_int s.events ];
    metric "engine.heap_high_water" "count" [ heap_high_water ];
    metric "net.enqueues" "count" [ enqueues ];
    metric "net.drops" "count" [ sum_metrics s.manifests (queue_metric ".drops") ];
    metric "dctcp.marks" "count" [ marks ];
    metric "dctcp.mark_share" "share" [ ratio marks enqueues ];
    metric "net.pool_rejects" "count" [ sum "buffer.pool_rejects" ];
    metric "tcp.timeouts" "count" [ sum "sender.timeouts" ];
    metric "tcp.retransmissions" "count" [ sum "sender.retransmissions" ];
    metric "net.no_route_drops" "count" [ sum "switch.no_route_drops" ];
    metric "exp.runner.busy_share" "share"
      [ ratio busy_s (float_of_int jobs *. runner.host_wall_s) ];
    metric "exp.runner.max_spec_s" "s" [ max_spec_s ];
    metric "host.wall_s" "s" [ s.host_wall_s ];
    metric "host.slowdown" "ratio" [ s.slowdown ];
  ]

(* Event class -> layer: transmit and delivery events run the net layer
   (and the transport code a delivery calls into), timers and control
   events the transport, sampler ticks obs, untagged events the engine. *)
let profiled_classes =
  Engine.Event_class.[ Link_tx; Link_rx; Timer; Protocol; Sample ]

let layer_of = function
  | Engine.Event_class.Link_tx | Link_rx | Fault -> "net"
  | Timer | Protocol -> "tcp"
  | Sample -> "obs"
  | Other -> "engine"

type pass = { untraced_s : float; traced_s : float; prof : Obs.Selfprof.t }

(* Alternate untraced and self-profiled serial passes over the same
   specs (the order flips each pair, so drift cancels), each checked
   against the expected digests. *)
let profile (fam : Families.t) specs ~seconds =
  let sub = Families.subset fam specs in
  let indices = List.map fst sub and sub_specs = List.map snd sub in
  let analyze = fam.Families.analyze in
  let wall outcomes =
    Array.fold_left
      (fun acc o -> acc +. o.Exp.Runner.manifest.Obs.Manifest.wall_clock_s)
      0. outcomes
  in
  let checked = ref [] in
  let timed run =
    let outcomes = run () in
    checked := singles indices outcomes @ !checked;
    wall outcomes
  in
  let untraced () = timed (fun () -> Exp.Runner.run ~jobs:1 ~analyze sub_specs) in
  let traced prof () =
    timed (fun () ->
        Array.of_list
          (List.map
             (Exp.Runner.run_one ~analyze ~on_sim:(Obs.Selfprof.attach prof))
             sub_specs))
  in
  let passes =
    until_elapsed ~seconds ~min_runs:1 (fun k ->
        let prof = Obs.Selfprof.create () in
        if k mod 2 = 0 then
          let untraced_s = untraced () in
          { untraced_s; traced_s = traced prof (); prof }
        else
          let traced_s = traced prof () in
          { untraced_s = untraced (); traced_s; prof })
  in
  (passes, !checked)

(* A class's time is its count times its sampled mean. The engine's
   share is the remainder of the traced wall time: untagged events, the
   dispatch loop and the profiler's own hooks. *)
let layer_share p layer =
  let in_layer l =
    Array.fold_left
      (fun acc cls ->
        if String.equal (layer_of cls) l then
          acc
          +. float_of_int (Obs.Selfprof.count p.prof cls)
             *. Obs.Selfprof.mean_us p.prof cls *. 1e-6
        else acc)
      0. Engine.Event_class.all
    /. p.traced_s
  in
  if String.equal layer "engine" then
    1. -. in_layer "net" -. in_layer "tcp" -. in_layer "obs"
  else in_layer layer

let profile_metrics passes =
  let per_pass f = match passes with [] -> [ 0. ] | _ -> List.map f passes in
  let class_metrics cls =
    let name = Engine.Event_class.name cls in
    [
      metric
        (Printf.sprintf "engine.class.%s.count" name)
        "count"
        (per_pass (fun p -> float_of_int (Obs.Selfprof.count p.prof cls)));
      metric
        (Printf.sprintf "engine.class.%s.mean_ns" name)
        "ns"
        (per_pass (fun p -> Obs.Selfprof.mean_us p.prof cls *. 1000.));
    ]
  in
  List.concat_map class_metrics profiled_classes
  @ List.map
      (fun l ->
        metric
          (Printf.sprintf "layer.%s.time_share" l)
          "share"
          (per_pass (fun p -> layer_share p l)))
      [ "net"; "tcp"; "obs"; "engine" ]
  @ [
      metric "obs.selfprof.overhead" "ratio"
        (per_pass (fun p -> p.traced_s /. p.untraced_s));
    ]

let row_metrics rows =
  List.concat_map
    (fun (r : Rows.row) ->
      [
        metric (r.Rows.name ^ ".ns_per_op") "ns" [ r.Rows.ns_per_op ];
        metric (r.Rows.name ^ ".words_per_op") "words" [ r.Rows.words_per_op ];
      ])
    rows

let per_layer (fam : Families.t) ~seed ~seconds ~expected =
  let t0 = now () in
  let specs = set_up fam ~seed in
  let warm = warm_up fam specs in
  let base = run_sweep fam specs in
  let fanout =
    Option.map (fun jobs -> (jobs, run_parallel fam ~jobs specs)) fam.Families.fanout_jobs
  in
  let passes, checked =
    match fam.Families.profile_stride with
    | None -> ([], [])
    | Some _ ->
        profile fam specs ~seconds:(Float.max 0. ((0.6 *. seconds) -. (now () -. t0)))
  in
  let expected = Option.value expected ~default:base.entries in
  let parallel = Option.to_list (Option.map snd fanout) in
  let attempted, failed = tally ~expected (base :: parallel) (warm @ checked) in
  let jobs, runner = Option.value fanout ~default:(1, base) in
  let counts = counts base ~runner ~jobs in
  let mark_share =
    match ratio (marks base.manifests) (enqueues base.manifests) with
    | 0. -> Rows.queue_trace_mark_share
    | share -> share
  in
  ( attempted,
    failed,
    counts
    @ [
        metric "exp.failed_share" "share"
          [ ratio (float_of_int failed) (float_of_int attempted) ];
      ]
    @ profile_metrics passes
    @ row_metrics (Rows.all ~mark_share ~seed) )

(* --- command line --- *)

let () =
  let workload = ref "" and seed = ref Families.default_seed in
  let seconds = ref 10. and trace = ref 0 and write_reference = ref false in
  let set_up_only = ref false in
  let usage =
    Printf.sprintf
      "main.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1] \
       [--write-reference]"
      (String.concat "|" Families.names)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N simulation seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--write-reference",
        Arg.Set write_reference,
        " re-record the workload's reference digests (default seed only)" );
      ("--set-up-only", Arg.Set set_up_only, " set up, then exit (timed by setup_s)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fam =
    match Families.find !workload with
    | Some f -> f
    | None ->
        prerr_endline usage;
        exit 2
  in
  let seed = !seed in
  if !set_up_only then ignore (set_up fam ~seed)
  else if !write_reference then begin
    if seed <> Families.default_seed then begin
      prerr_endline "--write-reference records the default seed only";
      exit 2
    end;
    rebaseline fam (Families.specs fam ~seed)
  end
  else begin
    let expected =
      if seed = Families.default_seed then Some (reference fam) else None
    in
    let seconds = !seconds in
    Printf.printf "workload %s (%s, %d specs), seed %Ld, %.0f s, trace %d\n%!"
      fam.Families.name fam.Families.registry
      (List.length (Families.specs fam ~seed))
      seed seconds !trace;
    let attempted, failed, metrics =
      if !trace = 0 then end_to_end fam ~seed ~seconds ~expected
      else per_layer fam ~seed ~seconds ~expected
    in
    report ~attempted ~failed metrics
  end
