(* Tests for the observability layer (lib/obs): trace filtering and ring
   bounding, serialization, the metrics registry, manifest round-trips,
   the shared sampler, and the load-bearing
   property that attaching observers never changes simulation results. *)

module Trace = Obs.Trace
module Json = Obs.Json
module Sim = Engine.Sim
module Time = Engine.Time

let mk ?(t = Time.zero) ?(component = "q") event =
  { Trace.time = t; component; event }

let enq ?(t = Time.zero) flow =
  mk ~t (Trace.Enqueue { flow; occ_bytes = 1500; occ_pkts = 1 })

let drop ?(t = Time.zero) flow = mk ~t (Trace.Drop { flow; occ_bytes = 3000 })

(* --- class filtering --- *)

let test_filtering () =
  let seen = ref [] in
  let tr =
    Trace.create ~classes:[ Trace.C_drop ]
      (Trace.Fn (fun r -> seen := r :: !seen))
  in
  Alcotest.(check bool) "drop enabled" true (Trace.enabled tr Trace.C_drop);
  Alcotest.(check bool)
    "enqueue disabled" false
    (Trace.enabled tr Trace.C_enqueue);
  Trace.emit tr (enq 0);
  Trace.emit tr (drop 1);
  Trace.emit tr (enq 2);
  Alcotest.(check int) "only the drop got through" 1 (List.length !seen)

let test_null_tracer () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Trace.cls_name c ^ " disabled on null")
        false
        (Trace.enabled Trace.null c))
    Trace.all_classes;
  (* Emitting into null is a silent no-op. *)
  Trace.emit Trace.null (drop 0)

let test_cls_name_roundtrip () =
  List.iter
    (fun c ->
      match Trace.cls_of_name (Trace.cls_name c) with
      | Some c' ->
          Alcotest.(check string)
            "roundtrip" (Trace.cls_name c) (Trace.cls_name c')
      | None -> Alcotest.fail ("cls_of_name failed for " ^ Trace.cls_name c))
    Trace.all_classes;
  Alcotest.(check bool)
    "unknown name" true
    (Trace.cls_of_name "no_such_event" = None)

(* --- ring buffer --- *)

let test_ring_bounding () =
  let r = Trace.ring ~capacity:4 in
  let tr = Trace.create (Trace.Ring r) in
  for i = 1 to 10 do
    Trace.emit tr (enq ~t:(Time.of_int_ns i) i)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.ring_length r);
  Alcotest.(check int) "total uncapped" 10 (Trace.ring_total r);
  let times =
    List.map
      (fun (rec_ : Trace.record) -> Time.to_int_ns rec_.Trace.time)
      (Trace.ring_records r)
  in
  Alcotest.(check (list int))
    "keeps the most recent, oldest first" [ 7; 8; 9; 10 ] times;
  Alcotest.(check bool)
    "capacity must be positive" true
    (match Trace.ring ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- serialization --- *)

let test_record_serialization () =
  let r = mk ~t:(Time.of_int_ns 42) ~component:"bottleneck" (Trace.Drop { flow = 3; occ_bytes = 9000 }) in
  let j = Trace.record_to_json r in
  Alcotest.(check bool)
    "t_ns" true
    (Json.member "t_ns" j = Some (Json.Int 42));
  Alcotest.(check bool)
    "event tag" true
    (Json.member "event" j = Some (Json.String "drop"));
  Alcotest.(check bool)
    "flow" true
    (Json.member "flow" j = Some (Json.Int 3))

(* --- Json parse / print --- *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 0.1;
      Json.Float 1e-9;
      Json.Float 123456789.125;
      Json.String "with \"quotes\" and \\ and \n";
      Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ];
      Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool false ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      match Json.parse s with
      | Ok j' ->
          Alcotest.(check bool) ("roundtrip " ^ s) true (Json.equal j j')
      | Error e -> Alcotest.fail (Printf.sprintf "parse %s: %s" s e))
    samples;
  (* A Float must never come back as an Int — equality is constructor-
     sensitive, so 1.0 must print with a '.' or exponent. *)
  (match Json.parse (Json.to_string (Json.Float 1.0)) with
  | Ok (Json.Float _) -> ()
  | Ok _ -> Alcotest.fail "Float 1.0 reparsed as non-Float"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "trailing garbage rejected" true
    (match Json.parse "1 x" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool)
    "truncated object rejected" true
    (match Json.parse "{\"a\": 1" with Error _ -> true | Ok _ -> false)

(* --- metrics registry --- *)

let test_metrics () =
  let m = Obs.Metrics.create () in
  let count = ref 0 in
  Obs.Metrics.probe m "z.count" (fun () -> float_of_int !count);
  Obs.Metrics.probe m "a.gauge" (fun () -> 2.25);
  Obs.Metrics.probe m "m.probe" (fun () -> 7.5);
  count := 11;
  Alcotest.(check (list (pair string (float 0.))))
    "snapshot is name-sorted and reads probes at snapshot time"
    [ ("a.gauge", 2.25); ("m.probe", 7.5); ("z.count", 11.) ]
    (Obs.Metrics.snapshot m);
  Alcotest.(check bool)
    "duplicate name rejected" true
    (match Obs.Metrics.probe m "a.gauge" (fun () -> 0.) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- manifest round-trip --- *)

let test_manifest_roundtrip () =
  let m =
    Obs.Manifest.make ~name:"test.run" ~seed:0x7FFF_FFFF_FFFF_FFFDL
      ~params:[ ("flows", Json.Int 8); ("protocol", Json.String "dt-dctcp") ]
      ~wall_clock_s:1.5 ~events:3000
      ~metrics:[ ("z", 1.); ("a", 2.5) ]
      ()
  in
  Alcotest.(check (float 0.)) "events_per_s computed" 2000. m.Obs.Manifest.events_per_s;
  Alcotest.(check (list (pair string (float 0.))))
    "metrics sorted" [ ("a", 2.5); ("z", 1.) ] m.Obs.Manifest.metrics;
  match Obs.Manifest.of_json (Obs.Manifest.to_json m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
      Alcotest.(check string) "name" m.Obs.Manifest.name m'.Obs.Manifest.name;
      Alcotest.(check int64) "seed survives as int64" m.Obs.Manifest.seed m'.Obs.Manifest.seed;
      Alcotest.(check int) "events" m.Obs.Manifest.events m'.Obs.Manifest.events;
      Alcotest.(check (float 0.)) "wall" m.Obs.Manifest.wall_clock_s m'.Obs.Manifest.wall_clock_s;
      Alcotest.(check (list (pair string (float 0.))))
        "metrics" m.Obs.Manifest.metrics m'.Obs.Manifest.metrics;
      Alcotest.(check bool)
        "params" true
        (Json.equal
           (Json.Obj m.Obs.Manifest.params)
           (Json.Obj m'.Obs.Manifest.params))

(* --- sampler --- *)

let test_sampler () =
  let ticks_of ~period ~stop_at =
    let sim = Sim.create () in
    let ticks = ref [] in
    Obs.Sampler.start sim ~period:(Time.span_of_int_ns period)
      ~stop_at:(Time.of_int_ns stop_at) (fun now ->
        ticks := Time.to_int_ns now :: !ticks);
    Sim.run sim;
    List.rev !ticks
  in
  Alcotest.(check (list int))
    "immediate: t=0 then every period up to stop_at" [ 0; 10; 20; 30 ]
    (ticks_of ~period:10 ~stop_at:35);
  Alcotest.(check (list int))
    "a tick landing exactly on stop_at fires" [ 0; 10; 20; 30 ]
    (ticks_of ~period:10 ~stop_at:30);
  Alcotest.(check (list int))
    "stop_at before the first period: only the immediate tick" [ 0 ]
    (ticks_of ~period:50 ~stop_at:20);
  Alcotest.(check bool)
    "non-positive period rejected" true
    (match ticks_of ~period:0 ~stop_at:10 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- observability must not perturb the simulation --- *)

let small_config seed n_flows =
  {
    Workloads.Longlived.default_config with
    Workloads.Longlived.n_flows;
    warmup = Time.span_of_ms 2.;
    measure = Time.span_of_ms 5.;
    seed;
  }

let snapshot_with_observers ~observe proto config =
  let metrics = Obs.Metrics.create () in
  let result =
    if observe then begin
      let ring = Trace.create (Trace.Ring (Trace.ring ~capacity:1024)) in
      let tmp = Filename.temp_file "test_obs" ".jsonl" in
      let oc = open_out tmp in
      let jsonl = Trace.create (Trace.Jsonl oc) in
      (* Drive both a ring and a JSONL sink through one Fn fan-out so a
         single run exercises every serialization path. *)
      let tr =
        Trace.create
          (Trace.Fn
             (fun r ->
               Trace.emit jsonl r;
               Trace.emit ring r))
      in
      let result = Workloads.Longlived.run ~tracer:tr ~metrics proto config in
      close_out oc;
      Sys.remove tmp;
      result
    end
    else Workloads.Longlived.run ~metrics proto config
  in
  (result, Obs.Metrics.snapshot metrics)

let determinism_invariance =
  QCheck.Test.make ~count:4
    ~name:"attaching tracer+metrics never changes results"
    QCheck.(pair (int_range 1 3) small_int)
    (fun (n_flows, seed_base) ->
      let proto = Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 () in
      let config = small_config (Int64.of_int (seed_base + 1)) n_flows in
      let bare, snap_bare = snapshot_with_observers ~observe:false proto config in
      let full, snap_full = snapshot_with_observers ~observe:true proto config in
      (* Bit-exact equality: determinism means the observed run IS the
         bare run. *)
      snap_bare = snap_full
      && bare.Workloads.Longlived.mean_queue_pkts
         = full.Workloads.Longlived.mean_queue_pkts
      && bare.Workloads.Longlived.throughput_bps
         = full.Workloads.Longlived.throughput_bps
      && bare.Workloads.Longlived.drops = full.Workloads.Longlived.drops)

(* --- tee --- *)

let test_tee () =
  let a_seen = ref 0 and b_seen = ref 0 in
  let a =
    Trace.create ~classes:[ Trace.C_drop ] (Trace.Fn (fun _ -> incr a_seen))
  in
  let b =
    Trace.create ~classes:[ Trace.C_enqueue ]
      (Trace.Fn (fun _ -> incr b_seen))
  in
  let t = Trace.tee a b in
  Alcotest.(check bool) "union: drop enabled" true (Trace.enabled t Trace.C_drop);
  Alcotest.(check bool)
    "union: enqueue enabled" true
    (Trace.enabled t Trace.C_enqueue);
  Alcotest.(check bool) "union: mark disabled" false (Trace.enabled t Trace.C_mark);
  Trace.emit t (drop 0);
  Trace.emit t (enq 1);
  Trace.emit t (mk (Trace.Mark { flow = 0; occ_bytes = 100; occ_pkts = 1 }));
  Alcotest.(check int) "branch a re-filters to drops" 1 !a_seen;
  Alcotest.(check int) "branch b re-filters to enqueues" 1 !b_seen

(* --- streaming analyzer --- *)

module An = Obs.Analyze

let an_config ?(sample_period = 10) ?band ?(n_flows = 4) ?(rtt = 100) () =
  {
    An.sample_period = Time.span_of_int_ns sample_period;
    band_bytes = band;
    n_flows;
    rtt = Time.span_of_int_ns rtt;
    segment_bytes = 1500;
  }

let occ_at t occ =
  mk ~t:(Time.of_int_ns t) (Trace.Enqueue { flow = 0; occ_bytes = occ; occ_pkts = occ / 1500 })

let cut_at t flow =
  mk ~t:(Time.of_int_ns t)
    (Trace.Cwnd_cut { flow; cwnd_before = 10.; cwnd_after = 5.; alpha = 1. })

let flip_at t marking =
  mk ~t:(Time.of_int_ns t) (Trace.Mark_state_flip { marking; occ_bytes = 0 })

let afield path j =
  let rec go j = function
    | [] -> j
    | k :: rest -> (
        match Json.member k j with
        | Some v -> go v rest
        | None -> Alcotest.fail ("analysis block lacks " ^ k))
  in
  go j path

let test_analyze_resampling () =
  (* Zero-order hold onto a 10 ns grid anchored at the first record:
     occupancy 100 from t=0, 200 from t=25, 0 from t=40 must sample as
     100,100,100,200,0 at t = 0,10,20,30,40. *)
  let an = An.create (an_config ()) in
  List.iter (An.feed an) [ occ_at 0 100; occ_at 25 200; occ_at 40 0 ];
  An.finalize an;
  let j = An.to_json an in
  Alcotest.(check bool)
    "5 grid samples" true
    (afield [ "occupancy"; "samples" ] j = Json.Int 5);
  (match afield [ "occupancy"; "mean_bytes" ] j with
  | Json.Float m -> Alcotest.(check (float 1e-9)) "ZOH mean" 100. m
  | _ -> Alcotest.fail "mean_bytes not a float");
  Alcotest.(check bool)
    "event-level min" true
    (afield [ "occupancy"; "min_bytes" ] j = Json.Int 0);
  Alcotest.(check bool)
    "event-level max" true
    (afield [ "occupancy"; "max_bytes" ] j = Json.Int 200)

let test_analyze_cycles () =
  (* Band (100, 200): low at 50, up-cross at 250 (cycle armed), low at
     60, up-cross at 300 completes one cycle with amplitude 300-60. *)
  let an = An.create (an_config ~band:(100, 200) ()) in
  List.iter (An.feed an)
    [ occ_at 0 50; occ_at 10 250; occ_at 20 60; occ_at 30 300 ];
  let s = An.summary an in
  Alcotest.(check int) "one complete cycle" 1 s.An.cycles;
  Alcotest.(check (float 1e-9))
    "amplitude (max-min within cycle, pkts)" (240. /. 1500.)
    s.An.amp_mean_pkts;
  Alcotest.(check (float 1e-12)) "period between up-crossings" 20e-9 s.An.period_mean_s;
  (* No band: the detector stays off however the occupancy swings. *)
  let an = An.create (an_config ()) in
  List.iter (An.feed an)
    [ occ_at 0 50; occ_at 10 250; occ_at 20 60; occ_at 30 300 ];
  Alcotest.(check int) "no band, no cycles" 0 (An.summary an).An.cycles

let test_analyze_flips_and_sync () =
  (* 4 flows, 100 ns windows. Window 0: flows 0 and 1 cut (flow 1
     twice, deduplicated) -> 2/4. Window 3: flow 2 -> 1/4. Flips: 4
     over the 400 ns trace span. *)
  let an = An.create (an_config ~band:(100, 200) ()) in
  List.iter (An.feed an)
    [
      cut_at 0 0;
      flip_at 10 true;
      cut_at 20 1;
      cut_at 30 1;
      flip_at 150 false;
      cut_at 310 2;
      flip_at 350 true;
      flip_at 400 false;
    ];
  let s = An.summary an in
  Alcotest.(check (float 1e-9)) "sync mean over active windows" 0.375 s.An.sync_mean;
  Alcotest.(check (float 1e-9)) "sync max" 0.5 s.An.sync_max;
  Alcotest.(check (float 1e-3)) "flip rate over 400 ns" (4. /. 400e-9) s.An.flip_rate_hz;
  let j = An.to_json an in
  Alcotest.(check bool)
    "2 active windows" true
    (afield [ "sync"; "active_windows" ] j = Json.Int 2);
  Alcotest.(check bool)
    "flips_up counted" true
    (afield [ "marking"; "flips_up" ] j = Json.Int 2)

let test_analyze_spectrum () =
  (* A square wave of period 10 samples (100 ns at 10 ns sampling) must
     come back as the dominant frequency: 1 / 100 ns = 10 MHz. *)
  let an = An.create (an_config ()) in
  for i = 0 to 399 do
    let occ = if i mod 10 < 5 then 0 else 1000 in
    An.feed an (occ_at (i * 10) occ)
  done;
  let s = An.summary an in
  (match s.An.dominant_freq_hz with
  | None -> Alcotest.fail "square wave yielded no dominant frequency"
  | Some f -> Alcotest.(check (float 1e3)) "10 MHz square wave" 1e7 f);
  Alcotest.(check bool) "no note on success" true (An.spectrum_note an = None);
  (* Degenerate diagnostics must be explicit, not a silent None. *)
  let short = An.create (an_config ()) in
  An.feed short (occ_at 0 100);
  An.feed short (occ_at 50 100);
  An.finalize short;
  (match An.spectrum_note short with
  | Some note ->
      Alcotest.(check bool)
        ("mentions shortness: " ^ note)
        true
        (String.length note >= 10 && String.sub note 0 12 = "series too s")
  | None -> Alcotest.fail "short series produced no note");
  let flat = An.create (an_config ()) in
  for i = 0 to 63 do
    An.feed flat (occ_at (i * 10) 500)
  done;
  An.finalize flat;
  (match An.spectrum_note flat with
  | Some note ->
      Alcotest.(check bool)
        ("mentions flatness: " ^ note)
        true
        (String.sub note 0 12 = "no variation")
  | None -> Alcotest.fail "flat series produced no note")

(* The analyzer's autocorrelation against a naive reference over the
   grid series it reports through [~on_sample]: every lag's product
   sum read from a ring indexed by [mod], the mean and variance by Welford, then the
   same first-negative-lag and strongest-recurrence search. Occupancies
   near 1e8 bytes make every product inexact, so the sums reproduce
   bit for bit only if each lag adds the same products in the same
   order. The lengths cross one and two wraps of the 512-sample lag
   ring. *)
let reference_peak ~max_lag xs =
  let n = Array.length xs in
  let acc = Array.make max_lag 0. and ring = Array.make max_lag 0. in
  let mean = ref 0. and m2 = ref 0. in
  Array.iteri
    (fun k x ->
      for l = 1 to Int.min k max_lag do
        acc.(l - 1) <- acc.(l - 1) +. (x *. ring.((k - l) mod max_lag))
      done;
      ring.(k mod max_lag) <- x;
      let delta = x -. !mean in
      mean := !mean +. (delta /. float_of_int (k + 1));
      m2 := !m2 +. (delta *. (x -. !mean)))
    xs;
  let var = !m2 /. float_of_int n and mean2 = !mean *. !mean in
  let rho l = ((acc.(l - 1) /. float_of_int (n - l)) -. mean2) /. var in
  let usable = Int.min max_lag (n - 16) in
  let rec first_negative l =
    if l > usable then None
    else if rho l < 0. then Some l
    else first_negative (l + 1)
  in
  match first_negative 1 with
  | None -> None
  | Some l0 ->
      let best = ref 0 and best_rho = ref neg_infinity in
      for l = l0 + 1 to usable do
        if rho l > !best_rho then begin
          best_rho := rho l;
          best := l
        end
      done;
      if !best = 0 || !best_rho < 0.1 then None else Some (!best, !best_rho)

let test_analyze_lags_match_reference () =
  List.iter
    (fun len ->
      let samples = ref [] in
      let an =
        An.create ~on_sample:(fun x -> samples := x :: !samples) (an_config ())
      in
      let noise = ref 12345 in
      for i = 0 to len - 1 do
        noise := ((!noise * 1103515245) + 12345) land 0x3fffffff;
        let saw = 100_000_000 + (i mod 37 * 1_700_003) in
        An.feed an (occ_at (i * 10) (saw + (!noise land 0xfffff)))
      done;
      let j = An.to_json an in
      let xs = Array.of_list (List.rev !samples) in
      let name what = Printf.sprintf "%s, %d samples" what len in
      Alcotest.(check int) (name "series length") len (Array.length xs);
      let max_lag =
        match afield [ "spectrum"; "max_lag" ] j with
        | Json.Int m -> m
        | _ -> Alcotest.fail "max_lag not an int"
      in
      match
        ( reference_peak ~max_lag xs,
          afield [ "spectrum"; "lag" ] j,
          afield [ "spectrum"; "peak_rho" ] j )
      with
      | Some (lag, rho), Json.Int lag', Json.Float rho' ->
          Alcotest.(check int) (name "lag") lag lag';
          Alcotest.(check int64)
            (name "peak_rho bits") (Int64.bits_of_float rho)
            (Int64.bits_of_float rho')
      | _ -> Alcotest.fail (name "no peak on both sides"))
    [ 300; 700; 1300; 2100 ]

let test_analyze_errors () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool)
    "non-positive period rejected" true
    (raises (fun () -> An.create (an_config ~sample_period:0 ())));
  Alcotest.(check bool)
    "inverted band rejected" true
    (raises (fun () -> An.create (an_config ~band:(200, 100) ())));
  Alcotest.(check bool)
    "zero flows rejected" true
    (raises (fun () -> An.create (an_config ~n_flows:0 ())));
  let an = An.create (an_config ()) in
  An.feed an (occ_at 100 10);
  Alcotest.(check bool)
    "time regression rejected" true
    (raises (fun () -> An.feed an (occ_at 50 10)));
  An.finalize an;
  Alcotest.(check bool)
    "feed after finalize rejected" true
    (raises (fun () -> An.feed an (occ_at 200 10)))

(* A trace file as `dtsim sweep --trace-out` starts one (the header
   [jsonl_tracer] writes for [config]), followed by [body]. *)
let trace_file ?classes config body =
  let file = Filename.temp_file "test_obs" ".jsonl" in
  let oc = open_out file in
  ignore (An.jsonl_tracer ?classes config oc);
  output_string oc body;
  close_out oc;
  file

let replay_file file =
  let ic = open_in file in
  let r = An.replay ic in
  close_in ic;
  Sys.remove file;
  r

let test_analyze_header_roundtrip () =
  let config = an_config ~band:(45_000, 75_000) () in
  (match replay_file (trace_file ~classes:An.required_classes config "") with
  | Error e -> Alcotest.fail e
  | Ok (h, _) ->
      Alcotest.(check bool)
        "config survives" true
        (h.An.Header.config = config);
      Alcotest.(check bool)
        "classes survive" true
        (List.length h.An.Header.classes = List.length An.required_classes
        && List.for_all
             (fun c -> List.mem c h.An.Header.classes)
             An.required_classes));
  (* None band round-trips through the Null fields. *)
  match
    replay_file (trace_file ~classes:[ Trace.C_drop ] (an_config ()) "")
  with
  | Ok (h, _) ->
      Alcotest.(check bool)
        "bandless config survives" true
        (h.An.Header.config.An.band_bytes = None);
      Alcotest.(check bool)
        "one class" true
        (h.An.Header.classes = [ Trace.C_drop ])
  | Error e -> Alcotest.fail e

(* --- record JSONL round-trip: every constructor --- *)

let all_events =
  [
    Trace.Enqueue { flow = 0; occ_bytes = 1500; occ_pkts = 1 };
    Trace.Dequeue { flow = 1; occ_bytes = 0; occ_pkts = 0 };
    Trace.Drop { flow = 2; occ_bytes = 99_000 };
    Trace.Mark { flow = 3; occ_bytes = 60_000; occ_pkts = 40 };
    Trace.Mark_state_flip { marking = true; occ_bytes = 45_000 };
    Trace.Cwnd_cut { flow = 4; cwnd_before = 12.5; cwnd_after = 6.25; alpha = 0.5 };
    Trace.Fast_retransmit { flow = 5; snd_una = 7077 };
    Trace.Rto { flow = 6; snd_una = 42; timeouts = 3 };
    Trace.Flow_start { flow = 7 };
    Trace.Flow_done { flow = 8; segments = 4096 };
    Trace.Link_down { occ_bytes = 10_500 };
    Trace.Link_up { occ_bytes = 0 };
    Trace.Pkt_lost { flow = 9; size = 1500 };
    Trace.Mark_suppressed { occ_bytes = 30_000; occ_pkts = 20 };
    Trace.Rate_changed { rate_bps = 5e9 };
    Trace.No_route_drop { flow = 10; dst = 63 };
  ]

let test_record_of_json_every_constructor () =
  List.iteri
    (fun i ev ->
      let r = mk ~t:(Time.of_int_ns (i * 7)) ~component:"c" ev in
      let line = Json.to_string (Trace.record_to_json r) in
      match Json.parse line with
      | Error e -> Alcotest.fail (line ^ ": " ^ e)
      | Ok j -> (
          match Trace.record_of_json j with
          | Ok r' ->
              Alcotest.(check bool)
                ("bit-identical record: " ^ Trace.cls_name (Trace.cls_of_event ev))
                true (r = r')
          | Error e -> Alcotest.fail (line ^ ": " ^ e)))
    all_events;
  (* Strictness: a missing field is an error, not a default. *)
  match
    Trace.record_of_json
      (Json.Obj [ ("t_ns", Json.Int 0); ("event", Json.String "drop") ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "record_of_json accepted a field-less drop"

(* Property: any event stream, serialized to JSONL and parsed back,
   drives the analyzer to a bit-identical analysis block. *)

let gen_event =
  let open QCheck.Gen in
  let occ = int_range 0 150_000 in
  let pkts = int_range 0 100 in
  let flow = int_range 0 7 in
  let posf = float_range 0.5 1000. in
  oneof
    [
      (fun st ->
        Trace.Enqueue { flow = flow st; occ_bytes = occ st; occ_pkts = pkts st });
      (fun st ->
        Trace.Dequeue { flow = flow st; occ_bytes = occ st; occ_pkts = pkts st });
      (fun st -> Trace.Drop { flow = flow st; occ_bytes = occ st });
      (fun st ->
        Trace.Mark { flow = flow st; occ_bytes = occ st; occ_pkts = pkts st });
      (fun st ->
        Trace.Mark_state_flip { marking = bool st; occ_bytes = occ st });
      (fun st ->
        Trace.Cwnd_cut
          {
            flow = flow st;
            cwnd_before = posf st;
            cwnd_after = posf st;
            alpha = float_range 0. 1. st;
          });
      (fun st -> Trace.Fast_retransmit { flow = flow st; snd_una = occ st });
      (fun st ->
        Trace.Rto { flow = flow st; snd_una = occ st; timeouts = pkts st });
      (fun st -> Trace.Flow_start { flow = flow st });
      (fun st -> Trace.Flow_done { flow = flow st; segments = occ st });
      (fun st -> Trace.Link_down { occ_bytes = occ st });
      (fun st -> Trace.Link_up { occ_bytes = occ st });
      (fun st -> Trace.Pkt_lost { flow = flow st; size = occ st });
      (fun st ->
        Trace.Mark_suppressed { occ_bytes = occ st; occ_pkts = pkts st });
      (fun st -> Trace.Rate_changed { rate_bps = posf st });
    ]

let gen_records =
  QCheck.Gen.(
    list_size (int_range 0 60) (pair (int_range 0 50) gen_event)
    >|= fun deltas ->
    let t = ref 0 in
    List.map
      (fun (dt, ev) ->
        t := !t + dt;
        mk ~t:(Time.of_int_ns !t) ev)
      deltas)

let analyzer_bit_identity =
  QCheck.Test.make ~count:50
    ~name:"JSONL round-trip drives a bit-identical analysis"
    (QCheck.make gen_records)
    (fun records ->
      let cfg = an_config ~band:(30_000, 60_000) () in
      let direct = An.create cfg in
      let replayed = An.create cfg in
      let direct_tr = An.tracer direct in
      let replay_tr = An.tracer replayed in
      List.iter
        (fun r ->
          Trace.emit direct_tr r;
          let line = Json.to_string (Trace.record_to_json r) in
          match Json.parse line with
          | Error e -> QCheck.Test.fail_report e
          | Ok j -> (
              match Trace.record_of_json j with
              | Ok r' -> Trace.emit replay_tr r'
              | Error e -> QCheck.Test.fail_report e))
        records;
      Json.equal (An.to_json direct) (An.to_json replayed))

(* Property: the field entry points are observationally the record
   one. Each occupancy, cut and flip record goes through [emit_occ],
   [emit_cut] or [emit_flip] with its fields; the rest of the stream
   goes through [emit] on both sides. *)

let emit_via_fields tr (r : Trace.record) =
  let occ cls ~flow ~occ_bytes ~occ_pkts =
    Trace.emit_occ tr cls ~time:r.Trace.time ~component:r.Trace.component
      ~flow ~occ_bytes ~occ_pkts
  in
  match r.Trace.event with
  | Trace.Enqueue { flow; occ_bytes; occ_pkts } ->
      occ Trace.C_enqueue ~flow ~occ_bytes ~occ_pkts
  | Trace.Dequeue { flow; occ_bytes; occ_pkts } ->
      occ Trace.C_dequeue ~flow ~occ_bytes ~occ_pkts
  | Trace.Mark { flow; occ_bytes; occ_pkts } ->
      occ Trace.C_mark ~flow ~occ_bytes ~occ_pkts
  | Trace.Drop { flow; occ_bytes } ->
      (* a drop's packet count is not part of its record *)
      occ Trace.C_drop ~flow ~occ_bytes ~occ_pkts:7
  | Trace.Cwnd_cut { flow; cwnd_before; cwnd_after; alpha } ->
      Trace.emit_cut tr ~time:r.Trace.time ~component:r.Trace.component ~flow
        ~cwnd_before ~cwnd_after ~alpha
  | Trace.Mark_state_flip { marking; occ_bytes } ->
      Trace.emit_flip tr ~time:r.Trace.time ~component:r.Trace.component
        ~marking ~occ_bytes
  | _ -> Trace.emit tr r

(* What a Ring, a JSONL file and an analyzer make of [records] when
   each is sent through [send], either to each tracer in turn or once
   to a tee of all three. *)
let observe ~tee ~send records =
  let ring = Trace.ring ~capacity:128 in
  let ring_tr = Trace.create (Trace.Ring ring) in
  let tmp = Filename.temp_file "test_obs" ".jsonl" in
  let oc = open_out tmp in
  let jsonl_tr = Trace.create (Trace.Jsonl oc) in
  let an = An.create (an_config ~band:(30_000, 60_000) ()) in
  let an_tr = An.tracer an in
  let targets =
    if tee then [ Trace.tee (Trace.tee ring_tr jsonl_tr) an_tr ]
    else [ ring_tr; jsonl_tr; an_tr ]
  in
  List.iter (fun r -> List.iter (fun tr -> send tr r) targets) records;
  close_out oc;
  let lines = In_channel.with_open_text tmp In_channel.input_all in
  Sys.remove tmp;
  (Trace.ring_records ring, lines, Json.to_string (An.to_json an))

let emit_occ_matches_emit =
  QCheck.Test.make ~count:50
    ~name:
      "emit_occ and emit give identical ring, JSONL and analysis; so do \
       emit_cut and emit_flip"
    (QCheck.make gen_records)
    (fun records ->
      List.for_all
        (fun tee ->
          observe ~tee ~send:emit_via_fields records
          = observe ~tee ~send:Trace.emit records)
        [ false; true ])

let test_emit_occ_tee_builds_once () =
  let a = Trace.ring ~capacity:4 and b = Trace.ring ~capacity:4 in
  let t =
    Trace.tee
      (Trace.create (Trace.Ring a))
      (Trace.create (Trace.Ring b))
  in
  Trace.emit_occ t Trace.C_mark ~time:(Time.of_int_ns 5) ~component:"q" ~flow:2
    ~occ_bytes:3000 ~occ_pkts:2;
  Trace.emit_cut t ~time:(Time.of_int_ns 6) ~component:"flow2" ~flow:2
    ~cwnd_before:8. ~cwnd_after:6. ~alpha:0.5;
  Trace.emit_flip t ~time:(Time.of_int_ns 7) ~component:"q" ~marking:true
    ~occ_bytes:3000;
  match (Trace.ring_records a, Trace.ring_records b) with
  | [ ra; ca; fa ], [ rb; cb; fb ] ->
      Alcotest.(check bool)
        "both branches share one record per emission" true
        (ra == rb && ca == cb && fa == fb);
      Alcotest.(check bool)
        "the records emit would have built" true
        (ra
         = mk ~t:(Time.of_int_ns 5)
             (Trace.Mark { flow = 2; occ_bytes = 3000; occ_pkts = 2 })
        && ca
           = mk ~t:(Time.of_int_ns 6) ~component:"flow2"
               (Trace.Cwnd_cut
                  { flow = 2; cwnd_before = 8.; cwnd_after = 6.; alpha = 0.5 })
        && fa
           = mk ~t:(Time.of_int_ns 7)
               (Trace.Mark_state_flip { marking = true; occ_bytes = 3000 }))
  | _ -> Alcotest.fail "each branch should hold exactly three records"

let test_emit_occ_rejects_other_classes () =
  let tr = Trace.create (Trace.Ring (Trace.ring ~capacity:4)) in
  Alcotest.check_raises "not an occupancy class"
    (Invalid_argument "Obs.Trace.emit_occ: not an occupancy class: rto")
    (fun () ->
      Trace.emit_occ tr Trace.C_rto ~time:Time.zero ~component:"q" ~flow:0
        ~occ_bytes:0 ~occ_pkts:0)

(* --- self-profiler --- *)

let test_selfprof_counts () =
  (* A deterministic scenario with known class tags: the profiler's
     per-class counts must match exactly what was scheduled. *)
  let cls i = Engine.Event_class.index i in
  let prof = Obs.Selfprof.create ~sample_every:2 () in
  let sim = Sim.create () in
  Obs.Selfprof.attach prof sim;
  for i = 1 to 5 do
    ignore
      (Sim.schedule_at_cls sim
         (Time.of_int_ns i)
         ~cls:(cls Engine.Event_class.Timer)
         (fun () -> ()))
  done;
  for i = 6 to 8 do
    ignore
      (Sim.schedule_at_cls sim
         (Time.of_int_ns i)
         ~cls:(cls Engine.Event_class.Link_tx)
         (fun () -> ()))
  done;
  ignore (Sim.schedule_at sim (Time.of_int_ns 9) (fun () -> ()));
  Sim.run sim;
  Alcotest.(check int) "timer events" 5
    (Obs.Selfprof.count prof Engine.Event_class.Timer);
  Alcotest.(check int) "link_tx events" 3
    (Obs.Selfprof.count prof Engine.Event_class.Link_tx);
  Alcotest.(check int) "untagged events land in Other" 1
    (Obs.Selfprof.count prof Engine.Event_class.Other);
  Alcotest.(check int) "total matches the engine" (Sim.events_processed sim)
    (Obs.Selfprof.total prof);
  Alcotest.(check int) "1-in-2 sampling timed half" 4
    (Obs.Selfprof.sampled_total prof);
  (* Detached: the hooks fall silent. *)
  Sim.clear_profiler sim;
  ignore (Sim.schedule_at sim (Time.of_int_ns 20) (fun () -> ()));
  Sim.run sim;
  Alcotest.(check int) "no counts after detach" 9 (Obs.Selfprof.total prof)

let test_selfprof_longlived () =
  (* On a real run the profiler observes exactly the engine's event
     count, and its trace-correlated classes line up with the trace:
     every Sample-class event is a sampler tick, every Timer-class
     event an RTO/timer fire. The strong assertion that stays exact is
     the total. *)
  let prof = Obs.Selfprof.create () in
  let proto = Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 () in
  let config = small_config 3L 2 in
  let metrics = Obs.Metrics.create () in
  let _r =
    Workloads.Longlived.run ~metrics
      ~on_sim:(fun sim -> Obs.Selfprof.attach prof sim)
      proto config
  in
  let events =
    match List.assoc_opt "engine.events_processed" (Obs.Metrics.snapshot metrics) with
    | Some v -> int_of_float v
    | None -> Alcotest.fail "no engine.events_processed metric"
  in
  Alcotest.(check int) "profiler saw every engine event" events
    (Obs.Selfprof.total prof);
  Alcotest.(check bool)
    "protocol-class events observed" true
    (Obs.Selfprof.count prof Engine.Event_class.Protocol > 0);
  Alcotest.(check bool)
    "link-tx events dominate" true
    (Obs.Selfprof.count prof Engine.Event_class.Link_tx > 0);
  (* The JSON report carries one entry per class, counts first. *)
  match Json.member "classes" (Obs.Selfprof.to_json prof) with
  | Some (Json.List l) ->
      Alcotest.(check int) "one entry per class" Engine.Event_class.count
        (List.length l)
  | _ -> Alcotest.fail "profile JSON lacks classes"

(* --- end to end: one observed run, as `dtsim sweep --trace-out
   --analysis-out --profile-out` makes it, replayed as `dtsim analyze`
   does --- *)

(* dtsim.longlived narrowed with the CLI's --set overrides: DT-DCTCP at
   (30, 50) packets, 4 flows, 5 ms warm-up, a 10 ms window sampled every
   20 us. *)
let observed_spec () =
  let base =
    match Exp.Registry.select "dtsim.longlived" with
    | Some [ s ] -> s
    | _ -> Alcotest.fail "no registry spec dtsim.longlived"
  in
  let set path value =
    match Json.parse value with
    | Ok j -> (path, j)
    | Error e -> Alcotest.fail e
  in
  match
    Exp.Spec.override base
      [
        set "protocol"
          {|{"kind":"dt-dctcp","g":0.0625,"k1_bytes":45000,"k2_bytes":75000}|};
        set "workload.n_flows" "4";
        set "workload.warmup" "5000000";
        set "workload.measure" "10000000";
        set "workload.trace_sampling" "20000";
      ]
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.equal (String.trim l) "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* What a CLI output file reads back as. *)
let reparse j =
  match Json.parse (Json.to_string j) with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let member path j =
  match
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  with
  | Some v -> v
  | None -> Alcotest.fail ("missing " ^ String.concat "." path)

let positive what = function
  | Json.Int i -> Alcotest.(check bool) (what ^ " > 0") true (i > 0)
  | Json.Float f -> Alcotest.(check bool) (what ^ " > 0") true (f > 0.)
  | _ -> Alcotest.fail (what ^ " is not a number")

let test_observed_run_end_to_end () =
  let spec = observed_spec () in
  let acfg =
    match Exp.Runner.analysis_config spec with
    | Some c -> c
    | None -> Alcotest.fail "longlived spec has no analysis config"
  in
  let file = Filename.temp_file "test_obs" ".jsonl" in
  let oc = open_out file in
  let tracer = An.jsonl_tracer acfg oc in
  let prof = Obs.Selfprof.create () in
  let o =
    Exp.Runner.run_one ~tracer ~on_sim:(Obs.Selfprof.attach prof)
      ~analyze:true spec
  in
  close_out oc;
  (* The trace: a header, then events with the hysteresis flips and the
     cwnd cuts of each flow's sawtooth. *)
  let lines =
    List.map
      (fun l ->
        match Json.parse l with Ok j -> j | Error e -> Alcotest.fail e)
      (read_lines file)
  in
  let events =
    match lines with
    | header :: events ->
        Alcotest.(check bool)
          "the first record is the header" true
          (Json.equal (member [ "trace_header" ] header) (Json.Int 1));
        events
    | [] -> Alcotest.fail "empty trace"
  in
  Alcotest.(check bool) "events follow the header" true (events <> []);
  let has name =
    List.exists
      (fun e -> Json.equal (member [ "event" ] e) (Json.String name))
      events
  in
  Alcotest.(check bool) "flips traced" true (has "mark_state_flip");
  Alcotest.(check bool) "cuts traced" true (has "cwnd_cut");
  (* The result: a finished long-lived run with 10 ms / 20 us + 1
     queue samples from the warm-up instant on, strictly increasing. *)
  let r = reparse (Exp.Outcome.to_json o.Exp.Runner.result) in
  Alcotest.(check string)
    "status/kind" "done/longlived"
    (match (member [ "status" ] r, member [ "kind" ] r) with
    | Json.String s, Json.String k -> s ^ "/" ^ k
    | _ -> "?");
  let times =
    match member [ "result"; "queue_series" ] r with
    | Json.List pts ->
        List.map
          (function
            | Json.List [ Json.Float t; _ ] -> t
            | _ -> Alcotest.fail "malformed queue sample")
          pts
    | _ -> Alcotest.fail "queue_series is not a list"
  in
  Alcotest.(check int) "queue samples" 501 (List.length times);
  Alcotest.(check (float 1e-9)) "first sample at the warm-up" 0.005
    (List.hd times);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sample times increase" true (increasing times);
  (* The manifest. *)
  let m = reparse (Obs.Manifest.to_json o.Exp.Runner.manifest) in
  List.iter
    (fun k -> ignore (member [ k ] m))
    [
      "name"; "seed"; "params"; "wall_clock_s"; "events"; "events_per_s";
      "metrics"; "analysis";
    ];
  positive "events" (member [ "events" ] m);
  positive "marking.flips_up" (member [ "metrics"; "marking.flips_up" ] m);
  (* Online (--analysis-out), offline (dtsim analyze's replay) and the
     manifest's block are the same bytes. *)
  let online =
    match o.Exp.Runner.manifest.Obs.Manifest.analysis with
    | Some j -> Json.to_string j
    | None -> Alcotest.fail "no online analysis"
  in
  let ic = open_in file in
  let offline =
    match An.replay ic with
    | Ok (_, an) -> Json.to_string (An.to_json an)
    | Error e -> Alcotest.fail e
  in
  close_in ic;
  Sys.remove file;
  Alcotest.(check string) "online = offline" online offline;
  Alcotest.(check string)
    "online = manifest" online
    (Json.to_string (member [ "analysis" ] m));
  let analysis = member [ "analysis" ] m in
  positive "occupancy samples" (member [ "occupancy"; "samples" ] analysis);
  positive "analysed flips" (member [ "marking"; "flips" ] analysis);
  (* The profile counts every engine event and times some. *)
  let p = reparse (Obs.Selfprof.to_json prof) in
  Alcotest.(check bool)
    "profiler total = engine events" true
    (Json.equal (member [ "events_total" ] p) (member [ "events" ] m));
  positive "events_sampled" (member [ "events_sampled" ] p)

(* Replay errors say what is wrong, and where. *)
let test_replay_errors () =
  let error_of file =
    match replay_file file with Ok _ -> "ok" | Error e -> e
  in
  let raw text =
    let file = Filename.temp_file "test_obs" ".jsonl" in
    let oc = open_out file in
    output_string oc text;
    close_out oc;
    file
  in
  Alcotest.(check string) "empty" "empty trace file" (error_of (raw "\n\n"));
  Alcotest.(check bool)
    "headerless" true
    (String.starts_with ~prefix:"first record is not a trace header"
       (error_of (raw (Json.to_string (Trace.record_to_json (enq 0))))));
  Alcotest.(check string)
    "a bad record names its line" "line 3: "
    (String.sub (error_of (trace_file (an_config ()) "\n{\"nope\":1}\n")) 0 8);
  Alcotest.(check string)
    "header only" "ok"
    (error_of (trace_file (an_config ()) ""))

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "class filtering" `Quick test_filtering;
        Alcotest.test_case "null tracer" `Quick test_null_tracer;
        Alcotest.test_case "cls_name roundtrip" `Quick test_cls_name_roundtrip;
        Alcotest.test_case "ring bounding" `Quick test_ring_bounding;
        Alcotest.test_case "record serialization" `Quick
          test_record_serialization;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "metrics registry" `Quick test_metrics;
        Alcotest.test_case "manifest roundtrip" `Quick test_manifest_roundtrip;
        Alcotest.test_case "sampler" `Quick test_sampler;
        qtest determinism_invariance;
        Alcotest.test_case "tee" `Quick test_tee;
        Alcotest.test_case "emit_occ through a tee builds one record" `Quick
          test_emit_occ_tee_builds_once;
        Alcotest.test_case "emit_occ rejects other classes" `Quick
          test_emit_occ_rejects_other_classes;
        Alcotest.test_case "record_of_json every constructor" `Quick
          test_record_of_json_every_constructor;
      ] );
    ( "obs.analyze",
      [
        Alcotest.test_case "zero-order-hold resampling" `Quick
          test_analyze_resampling;
        Alcotest.test_case "cycle detector" `Quick test_analyze_cycles;
        Alcotest.test_case "flips and sync index" `Quick
          test_analyze_flips_and_sync;
        Alcotest.test_case "dominant frequency + diagnostics" `Quick
          test_analyze_spectrum;
        Alcotest.test_case "autocorrelation matches a naive reference"
          `Quick test_analyze_lags_match_reference;
        Alcotest.test_case "input validation" `Quick test_analyze_errors;
        Alcotest.test_case "trace header roundtrip" `Quick
          test_analyze_header_roundtrip;
        qtest analyzer_bit_identity;
        qtest emit_occ_matches_emit;
      ] );
    ( "obs.end_to_end",
      [
        Alcotest.test_case
          "observed run: trace, result, manifest, analyses, profile" `Quick
          test_observed_run_end_to_end;
        Alcotest.test_case "replay errors name their line" `Quick
          test_replay_errors;
      ] );
    ( "obs.selfprof",
      [
        Alcotest.test_case "per-class counts" `Quick test_selfprof_counts;
        Alcotest.test_case "longlived run totals" `Quick
          test_selfprof_longlived;
      ] );
  ]
