(* Tests for the fault-injection subsystem (lib/fault): plan validation
   and JSON round-trips, injector semantics on a live dumbbell (flaps,
   wire loss, jitter, mark suppression), TCP loss recovery under seeded
   Bernoulli loss, the RTO exponential-backoff/clamp schedule during a
   long outage, and bit-identity of faulted sweeps across -j levels. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Plan = Fault.Plan
module Injector = Fault.Injector
module Json = Obs.Json
module Trace = Obs.Trace
module Spec = Exp.Spec
module Registry = Exp.Registry
module Runner = Exp.Runner
module Outcome = Exp.Outcome
module Gen = QCheck.Gen

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Plan: validation and JSON round-trip ----------------------------- *)

let full_plan suppression =
  {
    Plan.flaps =
      [
        { Plan.down_at = Time.span_of_ms 1.; up_at = Time.span_of_ms 2. };
        { Plan.down_at = Time.span_of_ms 5.; up_at = Time.span_of_ms 9. };
      ];
    loss_rate = 0.125;
    jitter_max = Time.span_of_us 30.;
    rate_changes =
      [
        {
          Plan.at = Time.span_of_ms 3.;
          until = Time.span_of_ms 4.;
          factor = 0.25;
        };
      ];
    suppression;
  }

let test_plan_roundtrip () =
  let plans =
    Plan.none
    :: List.map full_plan
         [
           Plan.Keep_marks;
           Plan.Suppress_all;
           Plan.Suppress_window
             { at = Time.span_of_ms 1.; until = Time.span_of_ms 2. };
           Plan.Suppress_prob 0.5;
         ]
  in
  List.iter
    (fun p ->
      match Json.parse (Plan.to_string p) with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok j -> (
          match Plan.of_json j with
          | Error e -> Alcotest.failf "of_json: %s" e
          | Ok p' ->
              checkb "round-trips" true (Obs.Json.equal (Plan.to_json p) (Plan.to_json p'));
              checkb "json stable" true
                (Json.equal (Plan.to_json p) (Plan.to_json p'))))
    plans

let test_plan_validate_rejects () =
  let rejected p = match Plan.validate p with Error _ -> true | Ok () -> false in
  let ns = Time.span_of_int_ns in
  let flap down_at up_at = { Plan.down_at = ns down_at; up_at = ns up_at } in
  checkb "empty window" true
    (rejected { Plan.none with flaps = [ flap 5 5 ] });
  checkb "reversed window" true
    (rejected { Plan.none with flaps = [ flap 9 3 ] });
  checkb "overlapping flaps" true
    (rejected { Plan.none with flaps = [ flap 1 10; flap 5 20 ] });
  checkb "unsorted flaps" true
    (rejected { Plan.none with flaps = [ flap 50 60; flap 1 10 ] });
  checkb "loss_rate = 1 (every packet lost forever)" true
    (rejected { Plan.none with loss_rate = 1.0 });
  checkb "negative loss_rate" true
    (rejected { Plan.none with loss_rate = -0.1 });
  checkb "negative jitter" true
    (rejected { Plan.none with jitter_max = ns (-1) });
  checkb "zero rate factor" true
    (rejected
       {
         Plan.none with
         rate_changes = [ { Plan.at = ns 1; until = ns 2; factor = 0. } ];
       });
  checkb "suppression prob out of range" true
    (rejected { Plan.none with suppression = Plan.Suppress_prob 1.5 });
  checkb "the no-fault plan is valid" true (not (rejected Plan.none));
  (* of_json re-validates, so a structurally well-formed but invalid plan
     is rejected on the way in too. *)
  checkb "of_json validates" true
    (match Plan.of_json (Plan.to_json { Plan.none with loss_rate = 2. }) with
    | Error _ -> true
    | Ok _ -> false)

let test_injector_rejects_invalid_plan () =
  let sim = Sim.create () in
  checkb "install raises on invalid plan" true
    (match
       Injector.install sim
         (Some { Plan.none with loss_rate = 1. })
         ~seed:1L ~component:"test" (Net.Marking.none ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Injector semantics on a live dumbbell ---------------------------- *)

(* The injector's counters are read the way a run reports them: as the
   [fault.*] probes of a metrics registry. *)
let metric m name = List.assoc name (Obs.Metrics.snapshot m)
let checkf = Alcotest.(check (float 0.))

(* The bottleneck attachment of [plan]; the marking the injector would
   wrap is unused (the dumbbell keeps its own). *)
let attach_plan ?tracer ?metrics sim d plan ~seed =
  let _, attach =
    Injector.install sim (Some plan) ~seed ?tracer ?metrics ~component:"fault"
      (Net.Marking.none ())
  in
  attach d.Net.Topology.bottleneck

(* The marking side of [plan] alone. *)
let wrap_plan ?metrics sim plan marking =
  fst
    (Injector.install sim (Some plan) ~seed:1L ?metrics ~component:"fault"
       marking)

let fast_config =
  (* max_rto must stay well under the run caps below: at the default 60 s
     a few consecutive losses of the same retransmission saturate the
     backoff and park the flow for a minute per further loss, so a
     correctly-recovering flow can still miss a 60 s deadline. *)
  {
    Tcp.Sender.default_config with
    min_rto = Time.span_of_ms 10.;
    initial_rto = Time.span_of_ms 50.;
    max_rto = Time.span_of_sec 1.;
  }

let mk_net ?(seed = 5L) ?(n = 1) ?(buffer = 100 * 1500) () =
  let sim = Sim.create ~seed () in
  let d =
    Net.Topology.dumbbell sim ~n_senders:n ~bottleneck_rate_bps:1e9
      ~rtt:(Time.span_of_us 100.) ~buffer_bytes:buffer
      ~marking:(Net.Marking.none ()) ()
  in
  (sim, d)

let mk_flow ?tracer ?(config = fast_config) ?limit_segments sim d i =
  Tcp.Flow.create sim ~src:d.Net.Topology.senders.(i)
    ~dst:d.Net.Topology.receiver ~flow:i ~cc:Tcp.Cc.reno ?tracer ~config
    ?limit_segments ()

let test_flap_downs_link_and_recovers () =
  let sim, d = mk_net () in
  let events = ref [] in
  let tracer =
    Trace.create
      ~classes:[ Trace.C_link_down; Trace.C_link_up ]
      (Trace.Fn (fun r -> events := r :: !events))
  in
  let down_at = Time.span_of_ms 5. and up_at = Time.span_of_ms 8. in
  let metrics = Obs.Metrics.create () in
  attach_plan sim d ~tracer ~metrics
    { Plan.none with flaps = [ { Plan.down_at; up_at } ] } ~seed:1L;
  let flow = mk_flow sim d 0 ~limit_segments:4000 in
  Tcp.Flow.start flow;
  (* Probe link state inside the window and after it. *)
  let seen_down = ref true and seen_up = ref false in
  ignore
    (Sim.schedule_after sim (Time.span_of_ms 6.) (fun () ->
         seen_down := Net.Port.is_up d.Net.Topology.bottleneck));
  ignore
    (Sim.schedule_after sim (Time.span_of_ms 9.) (fun () ->
         seen_up := Net.Port.is_up d.Net.Topology.bottleneck));
  Sim.run ~until:(Time.of_sec 2.) sim;
  checkb "link down inside the window" false !seen_down;
  checkb "link back up after the window" true !seen_up;
  checkf "one down" 1. (metric metrics "fault.link_downs");
  checkb "transfer survives the outage" true (Tcp.Flow.completed flow);
  let names =
    List.rev_map (fun r -> Trace.cls_name (Trace.cls_of_event r.Trace.event))
      !events
  in
  Alcotest.(check (list string))
    "typed trace events" [ "link_down"; "link_up" ] names

let test_loss_hook_drops_packets () =
  let sim, d = mk_net () in
  let metrics = Obs.Metrics.create () in
  attach_plan sim d ~metrics { Plan.none with loss_rate = 0.2 } ~seed:3L;
  let flow = mk_flow sim d 0 ~limit_segments:500 in
  Tcp.Flow.start flow;
  Sim.run ~until:(Time.of_sec 10.) sim;
  checkb "packets were lost on the wire" true (metric metrics "fault.pkts_lost" > 0.);
  checkb "sender retransmitted" true
    (Tcp.Sender.retransmissions (Tcp.Flow.sender flow) > 0);
  checkb "transfer still completes" true (Tcp.Flow.completed flow);
  checki "every byte delivered" 500 (Tcp.Flow.segments_delivered flow)

let test_jitter_delays_packets () =
  let sim, d = mk_net () in
  let metrics = Obs.Metrics.create () in
  attach_plan sim d ~metrics
    { Plan.none with jitter_max = Time.span_of_us 50. } ~seed:4L;
  let flow = mk_flow sim d 0 ~limit_segments:300 in
  Tcp.Flow.start flow;
  Sim.run ~until:(Time.of_sec 10.) sim;
  checkb "deliveries were delayed" true
    (metric metrics "fault.pkts_delayed" > 0.);
  checkf "no wire loss from jitter" 0. (metric metrics "fault.pkts_lost");
  checkb "transfer completes despite reordering" true
    (Tcp.Flow.completed flow)

let always_mark () =
  Net.Marking.make
    ~on_enqueue:(fun ~bytes:_ ~packets:_ -> true)
    ~on_dequeue:(fun ~bytes:_ ~packets:_ -> ())
    ()

let test_suppress_all_discards_marks () =
  let sim = Sim.create () in
  let metrics = Obs.Metrics.create () in
  let m =
    wrap_plan sim ~metrics
      { Plan.none with suppression = Plan.Suppress_all }
      (always_mark ())
  in
  let verdicts = List.init 5 (fun i -> m.Net.Marking.on_enqueue ~bytes:(1500 * i) ~packets:i) in
  checkb "no mark survives" true (List.for_all not verdicts);
  checkf "every suppression counted" 5.
    (metric metrics "fault.marks_suppressed")

let test_suppress_window_is_time_scoped () =
  let sim = Sim.create () in
  let metrics = Obs.Metrics.create () in
  let m =
    wrap_plan sim ~metrics
      {
        Plan.none with
        suppression =
          Plan.Suppress_window
            { at = Time.span_of_ms 1.; until = Time.span_of_ms 2. };
      }
      (always_mark ())
  in
  let at ms = Sim.schedule_at sim (Time.of_ms ms) in
  let before = ref false and inside = ref true and after = ref false in
  ignore (at 0.5 (fun () -> before := m.Net.Marking.on_enqueue ~bytes:1500 ~packets:1));
  ignore (at 1.5 (fun () -> inside := m.Net.Marking.on_enqueue ~bytes:1500 ~packets:1));
  ignore (at 2.5 (fun () -> after := m.Net.Marking.on_enqueue ~bytes:1500 ~packets:1));
  Sim.run sim;
  checkb "marks pass before the window" true !before;
  checkb "marks suppressed inside the window" false !inside;
  checkb "marks pass after the window" true !after;
  checkf "one suppression" 1. (metric metrics "fault.marks_suppressed")

let test_keep_marks_is_identity () =
  let sim = Sim.create () in
  let inner = always_mark () in
  let m = wrap_plan sim Plan.none inner in
  checkb "same policy object" true (m == inner);
  checkb "marks untouched" true (m.Net.Marking.on_enqueue ~bytes:1500 ~packets:1)

(* --- TCP loss recovery (satellite): every byte arrives ---------------- *)

let prop_loss_recovery =
  QCheck.Test.make ~count:12
    ~name:"seeded Bernoulli loss (p<1): every flow delivers all bytes"
    (QCheck.make
       ~print:(fun (seed, p) -> Printf.sprintf "seed=%d p=%.3f" seed p)
       (Gen.pair (Gen.int_range 1 10_000) (Gen.float_range 0.01 0.35)))
    (fun (seed, p) ->
      let sim, d = mk_net ~seed:(Int64.of_int seed) ~n:2 () in
      attach_plan sim d { Plan.none with loss_rate = p }
        ~seed:(Int64.of_int seed);
      let per_flow = 150 in
      let flows =
        List.init 2 (fun i -> mk_flow sim d i ~limit_segments:per_flow)
      in
      List.iter Tcp.Flow.start flows;
      Sim.run ~until:(Time.of_sec 60.) sim;
      List.for_all
        (fun f ->
          Tcp.Flow.completed f
          && Tcp.Flow.segments_delivered f = per_flow)
        flows)

(* --- RTO backoff and clamp during a long outage (satellite) ----------- *)

let test_rto_backoff_and_clamp () =
  let sim, d = mk_net () in
  let max_rto = Time.span_of_ms 80. in
  let config = { fast_config with Tcp.Sender.max_rto } in
  let down_at = Time.span_of_ms 20. and up_at = Time.span_of_ms 600. in
  attach_plan sim d
    { Plan.none with flaps = [ { Plan.down_at; up_at } ] }
    ~seed:1L;
  let rto_times = ref [] in
  let tracer =
    Trace.create ~classes:[ Trace.C_rto ]
      (Trace.Fn (fun r -> rto_times := r.Trace.time :: !rto_times))
  in
  let flow = mk_flow sim d 0 ~tracer ~config ~limit_segments:10_000 in
  Tcp.Flow.start flow;
  Sim.run ~until:(Time.of_sec 5.) sim;
  checkb "transfer completes after the link returns" true
    (Tcp.Flow.completed flow);
  (* RTO events during the outage: gaps must follow the doubling-then-
     clamp schedule exactly (the run is deterministic, no ACKs arrive to
     re-seed the estimator mid-outage). *)
  let int_ns = Time.span_to_int_ns in
  let during =
    List.rev_map Time.to_int_ns !rto_times
    |> List.filter (fun t -> t >= int_ns down_at && t <= int_ns up_at)
  in
  checkb
    (Printf.sprintf "several timeouts fired during the outage (%d)"
       (List.length during))
    true
    (List.length during >= 4);
  let gaps =
    let rec go = function
      | a :: (b :: _ as rest) -> (b - a) :: go rest
      | _ -> []
    in
    go during
  in
  let rec check_schedule = function
    | g1 :: (g2 :: _ as rest) ->
        let expected = Int.min (2 * g1) (int_ns max_rto) in
        checkb
          (Printf.sprintf "gap %dns follows %dns (expect %dns)" g2 g1
             expected)
          true (g2 = expected);
        check_schedule rest
    | _ -> ()
  in
  check_schedule gaps;
  checkb "backoff reached the max_rto clamp" true
    (List.exists (fun g -> g = int_ns max_rto) gaps);
  checkb "clamp held (no gap above max_rto)" true
    (List.for_all (fun g -> g <= int_ns max_rto) gaps);
  checkb "timeouts counted" true
    (Tcp.Sender.timeouts (Tcp.Flow.sender flow) >= List.length during)

(* --- faulted runs are bit-identical across -j and repeats -------------- *)

let manifest_deterministic_eq (a : Obs.Manifest.t) (b : Obs.Manifest.t) =
  String.equal a.Obs.Manifest.name b.Obs.Manifest.name
  && Int64.equal a.Obs.Manifest.seed b.Obs.Manifest.seed
  && a.Obs.Manifest.events = b.Obs.Manifest.events
  && List.length a.Obs.Manifest.metrics = List.length b.Obs.Manifest.metrics
  && List.for_all2
       (fun (k1, v1) (k2, v2) ->
         String.equal k1 k2
         && Int64.equal (Int64.bits_of_float v1) (Int64.bits_of_float v2))
       a.Obs.Manifest.metrics b.Obs.Manifest.metrics
  && Json.equal
       (Json.Obj a.Obs.Manifest.params)
       (Json.Obj b.Obs.Manifest.params)

let outcome_bitwise_eq (a : Runner.outcome) (b : Runner.outcome) =
  Spec.equal a.Runner.spec b.Runner.spec
  && Outcome.equal a.Runner.result b.Runner.result
  && manifest_deterministic_eq a.Runner.manifest b.Runner.manifest

let test_faulted_sweep_bit_identical () =
  let specs = Option.get (Registry.select "robust_smoke") in
  checkb "the smoke slice is faulted" true
    (List.for_all (fun s -> Option.is_some s.Spec.faults) specs);
  let serial = Runner.run ~jobs:1 specs in
  let par = Runner.run ~jobs:4 specs in
  let again = Runner.run ~jobs:1 specs in
  checki "slot per spec" (List.length specs) (Array.length serial);
  checkb "-j 4 bit-identical to -j 1" true
    (Array.for_all2 outcome_bitwise_eq serial par);
  checkb "same-seed repeat bit-identical" true
    (Array.for_all2 outcome_bitwise_eq serial again)

(* Formerly these three workloads rejected fault plans with a typed
   error; every workload now threads a plan through to an injector, so a
   faulted spec must run — and must actually differ from the fault-free
   run of the same seed (the injector is live, not silently dropped). *)
let test_faults_supported_on_all_workloads () =
  let module D = Workloads.Dumbbell in
  let cases =
    [
      ( "convergence",
        Spec.Dumbbell
          (D.default_config
             (D.Convergence
                {
                  D.convergence with
                  n_flows = 2;
                  join_interval = Time.span_of_ms 5.;
                  hold = Time.span_of_ms 5.;
                })) );
      ( "dynamic",
        Spec.Dumbbell
          (D.default_config
             (D.Dynamic
                {
                  D.dynamic with
                  background_flows = 2;
                  short_senders = 4;
                  arrival_rate = 2000.;
                  duration = Time.span_of_ms 5.;
                  warmup = Time.span_of_ms 2.;
                  drain = Time.span_of_ms 5.;
                })) );
      ( "deadline",
        Spec.Fanin
          {
            (Workloads.Fanin.default_config Workloads.Fanin.Deadline) with
            n_flows = 4;
            repeats = 2;
            time_cap = Time.span_of_sec 2.;
          } );
    ]
  in
  List.iter
    (fun (name, workload) ->
      let spec faults =
        {
          Spec.name = "fault/supported/" ^ name;
          protocol = Registry.sim_dctcp;
          workload;
          faults;
          buffer = Net.Buffer_mgr.Static;
        }
      in
      let faulted = spec (Some { Plan.none with loss_rate = 0.05 }) in
      let clean = spec None in
      (match (Runner.run_one faulted).Runner.result with
      | Outcome.Done _ -> ()
      | Outcome.Failed { error; _ } ->
          Alcotest.failf "faulted %s spec failed: %s" name error);
      let payload o =
        Outcome.to_json (Runner.run_one o).Runner.result
      in
      checkb
        (name ^ " injector observably changes the run")
        false
        (Json.equal (payload faulted) (payload clean)))
    cases

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "JSON round-trip" `Quick test_plan_roundtrip;
        Alcotest.test_case "validate rejections" `Quick
          test_plan_validate_rejects;
        Alcotest.test_case "injector rejects invalid plan" `Quick
          test_injector_rejects_invalid_plan;
      ] );
    ( "fault.injector",
      [
        Alcotest.test_case "flap downs and restores the link" `Quick
          test_flap_downs_link_and_recovers;
        Alcotest.test_case "loss hook drops packets" `Quick
          test_loss_hook_drops_packets;
        Alcotest.test_case "jitter delays packets" `Quick
          test_jitter_delays_packets;
        Alcotest.test_case "suppress_all discards marks" `Quick
          test_suppress_all_discards_marks;
        Alcotest.test_case "suppress window is time-scoped" `Quick
          test_suppress_window_is_time_scoped;
        Alcotest.test_case "keep_marks is the identity" `Quick
          test_keep_marks_is_identity;
      ] );
    ( "fault.recovery",
      [
        qtest prop_loss_recovery;
        Alcotest.test_case "RTO backoff doubles then clamps" `Quick
          test_rto_backoff_and_clamp;
      ] );
    ( "fault.determinism",
      [
        Alcotest.test_case "faulted sweep -j4 = -j1 = repeat" `Quick
          test_faulted_sweep_bit_identical;
        Alcotest.test_case "faults supported on all workloads" `Quick
          test_faults_supported_on_all_workloads;
      ] );
  ]
