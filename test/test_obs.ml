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
    Trace.emit tr (enq ~t:(Time.of_ns (Int64.of_int i)) i)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.ring_length r);
  Alcotest.(check int) "total uncapped" 10 (Trace.ring_total r);
  let times =
    List.map
      (fun (rec_ : Trace.record) -> Time.to_ns rec_.Trace.time)
      (Trace.ring_records r)
  in
  Alcotest.(check (list int64))
    "keeps the most recent, oldest first" [ 7L; 8L; 9L; 10L ] times;
  Alcotest.(check bool)
    "capacity must be positive" true
    (match Trace.ring ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- serialization --- *)

let test_record_serialization () =
  let r = mk ~t:(Time.of_ns 42L) ~component:"bottleneck" (Trace.Drop { flow = 3; occ_bytes = 9000 }) in
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
    Obs.Sampler.start sim ~period ~stop_at:(Time.of_ns stop_at) (fun now ->
        ticks := Time.to_ns now :: !ticks);
    Sim.run sim;
    List.rev !ticks
  in
  Alcotest.(check (list int64))
    "immediate: t=0 then every period up to stop_at" [ 0L; 10L; 20L; 30L ]
    (ticks_of ~period:10L ~stop_at:35L);
  Alcotest.(check (list int64))
    "a tick landing exactly on stop_at fires" [ 0L; 10L; 20L; 30L ]
    (ticks_of ~period:10L ~stop_at:30L);
  Alcotest.(check (list int64))
    "stop_at before the first period: only the immediate tick" [ 0L ]
    (ticks_of ~period:50L ~stop_at:20L);
  Alcotest.(check bool)
    "non-positive period rejected" true
    (match ticks_of ~period:0L ~stop_at:10L with
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

let an_config ?(sample_period = 10L) ?band ?(n_flows = 4) ?(rtt = 100L) () =
  {
    An.sample_period;
    band_bytes = band;
    n_flows;
    rtt;
    segment_bytes = 1500;
  }

let occ_at t occ =
  mk ~t:(Time.of_ns t) (Trace.Enqueue { flow = 0; occ_bytes = occ; occ_pkts = occ / 1500 })

let cut_at t flow =
  mk ~t:(Time.of_ns t)
    (Trace.Cwnd_cut { flow; cwnd_before = 10.; cwnd_after = 5.; alpha = 1. })

let flip_at t marking =
  mk ~t:(Time.of_ns t) (Trace.Mark_state_flip { marking; occ_bytes = 0 })

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
  List.iter (An.feed an) [ occ_at 0L 100; occ_at 25L 200; occ_at 40L 0 ];
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
    [ occ_at 0L 50; occ_at 10L 250; occ_at 20L 60; occ_at 30L 300 ];
  let s = An.summary an in
  Alcotest.(check int) "one complete cycle" 1 s.An.cycles;
  Alcotest.(check (float 1e-9))
    "amplitude (max-min within cycle, pkts)" (240. /. 1500.)
    s.An.amp_mean_pkts;
  Alcotest.(check (float 1e-12)) "period between up-crossings" 20e-9 s.An.period_mean_s;
  (* No band: the detector stays off however the occupancy swings. *)
  let an = An.create (an_config ()) in
  List.iter (An.feed an)
    [ occ_at 0L 50; occ_at 10L 250; occ_at 20L 60; occ_at 30L 300 ];
  Alcotest.(check int) "no band, no cycles" 0 (An.summary an).An.cycles

let test_analyze_flips_and_sync () =
  (* 4 flows, 100 ns windows. Window 0: flows 0 and 1 cut (flow 1
     twice, deduplicated) -> 2/4. Window 3: flow 2 -> 1/4. Flips: 4
     over the 400 ns trace span. *)
  let an = An.create (an_config ~band:(100, 200) ()) in
  List.iter (An.feed an)
    [
      cut_at 0L 0;
      flip_at 10L true;
      cut_at 20L 1;
      cut_at 30L 1;
      flip_at 150L false;
      cut_at 310L 2;
      flip_at 350L true;
      flip_at 400L false;
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
    An.feed an (occ_at (Int64.of_int (i * 10)) occ)
  done;
  let s = An.summary an in
  (match s.An.dominant_freq_hz with
  | None -> Alcotest.fail "square wave yielded no dominant frequency"
  | Some f -> Alcotest.(check (float 1e3)) "10 MHz square wave" 1e7 f);
  Alcotest.(check bool) "no note on success" true (An.spectrum_note an = None);
  (* Degenerate diagnostics must be explicit, not a silent None. *)
  let short = An.create (an_config ()) in
  An.feed short (occ_at 0L 100);
  An.feed short (occ_at 50L 100);
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
    An.feed flat (occ_at (Int64.of_int (i * 10)) 500)
  done;
  An.finalize flat;
  (match An.spectrum_note flat with
  | Some note ->
      Alcotest.(check bool)
        ("mentions flatness: " ^ note)
        true
        (String.sub note 0 12 = "no variation")
  | None -> Alcotest.fail "flat series produced no note")

let test_analyze_errors () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool)
    "non-positive period rejected" true
    (raises (fun () -> An.create (an_config ~sample_period:0L ())));
  Alcotest.(check bool)
    "inverted band rejected" true
    (raises (fun () -> An.create (an_config ~band:(200, 100) ())));
  Alcotest.(check bool)
    "zero flows rejected" true
    (raises (fun () -> An.create (an_config ~n_flows:0 ())));
  let an = An.create (an_config ()) in
  An.feed an (occ_at 100L 10);
  Alcotest.(check bool)
    "time regression rejected" true
    (raises (fun () -> An.feed an (occ_at 50L 10)));
  An.finalize an;
  Alcotest.(check bool)
    "feed after finalize rejected" true
    (raises (fun () -> An.feed an (occ_at 200L 10)))

let test_analyze_header_roundtrip () =
  let h =
    {
      An.Header.config = an_config ~band:(45_000, 75_000) ();
      classes = An.required_classes;
    }
  in
  let j = An.Header.to_json h in
  Alcotest.(check bool) "is_header" true (An.Header.is_header j);
  Alcotest.(check bool)
    "a record is not a header" false
    (An.Header.is_header (Trace.record_to_json (enq 0)));
  (match An.Header.of_json j with
  | Error e -> Alcotest.fail e
  | Ok h' ->
      Alcotest.(check bool)
        "config survives" true
        (h'.An.Header.config = h.An.Header.config);
      Alcotest.(check bool)
        "classes survive" true
        (h'.An.Header.classes = h.An.Header.classes));
  (* None band round-trips through the Null fields. *)
  let h = { An.Header.config = an_config (); classes = [ Trace.C_drop ] } in
  match An.Header.of_json (An.Header.to_json h) with
  | Ok h' ->
      Alcotest.(check bool)
        "bandless config survives" true
        (h'.An.Header.config.An.band_bytes = None)
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
      let r = mk ~t:(Time.of_ns (Int64.of_int (i * 7))) ~component:"c" ev in
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
    let t = ref 0L in
    List.map
      (fun (dt, ev) ->
        t := Int64.add !t (Int64.of_int dt);
        mk ~t:(Time.of_ns !t) ev)
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

(* Property: the unboxed occupancy entry point is observationally the
   record one. Each occupancy record goes through [emit_occ] with its
   fields; the rest of the stream goes through [emit] on both sides. *)

let emit_via_occ tr (r : Trace.record) =
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
    ~name:"emit_occ and emit give identical ring, JSONL and analysis"
    (QCheck.make gen_records)
    (fun records ->
      List.for_all
        (fun tee ->
          observe ~tee ~send:emit_via_occ records
          = observe ~tee ~send:Trace.emit records)
        [ false; true ])

let test_emit_occ_tee_builds_once () =
  let a = Trace.ring ~capacity:4 and b = Trace.ring ~capacity:4 in
  let t =
    Trace.tee
      (Trace.create (Trace.Ring a))
      (Trace.create (Trace.Ring b))
  in
  Trace.emit_occ t Trace.C_mark ~time:(Time.of_ns 5L) ~component:"q" ~flow:2
    ~occ_bytes:3000 ~occ_pkts:2;
  match (Trace.ring_records a, Trace.ring_records b) with
  | [ ra ], [ rb ] ->
      Alcotest.(check bool) "both branches share one record" true (ra == rb);
      Alcotest.(check bool)
        "the record emit would have built" true
        (ra
        = mk ~t:(Time.of_ns 5L)
            (Trace.Mark { flow = 2; occ_bytes = 3000; occ_pkts = 2 }))
  | _ -> Alcotest.fail "each branch should hold exactly one record"

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
         (Time.of_ns (Int64.of_int i))
         ~cls:(cls Engine.Event_class.Timer)
         (fun () -> ()))
  done;
  for i = 6 to 8 do
    ignore
      (Sim.schedule_at_cls sim
         (Time.of_ns (Int64.of_int i))
         ~cls:(cls Engine.Event_class.Link_tx)
         (fun () -> ()))
  done;
  ignore (Sim.schedule_at sim (Time.of_ns 9L) (fun () -> ()));
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
  ignore (Sim.schedule_at sim (Time.of_ns 20L) (fun () -> ()));
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
        Alcotest.test_case "input validation" `Quick test_analyze_errors;
        Alcotest.test_case "trace header roundtrip" `Quick
          test_analyze_header_roundtrip;
        qtest analyzer_bit_identity;
        qtest emit_occ_matches_emit;
      ] );
    ( "obs.selfprof",
      [
        Alcotest.test_case "per-class counts" `Quick test_selfprof_counts;
        Alcotest.test_case "longlived run totals" `Quick
          test_selfprof_longlived;
      ] );
  ]
