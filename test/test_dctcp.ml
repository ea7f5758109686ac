(* Tests for the paper's contribution layer: the two marking mechanisms and
   the DCTCP sender algorithm. *)

module M = Dctcp.Marking_policies
module Marking = Net.Marking

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

(* Drive a marking policy with a walk of occupancy values (bytes). Between
   consecutive samples we call on_enqueue when rising (the occupancy
   includes an arriving packet) and on_dequeue when falling. Returns the
   per-step mark decision for rising steps (None for falling steps). *)
let drive policy walk =
  List.map
    (fun (dir, occ) ->
      match dir with
      | `Enq ->
          Some (policy.Marking.on_enqueue ~bytes:occ ~packets:(occ / 1500))
      | `Deq ->
          policy.Marking.on_dequeue ~bytes:occ ~packets:(occ / 1500);
          None)
    walk

(* Turn a list of absolute occupancies into enqueue/dequeue steps. *)
let steps_of_walk occs =
  let rec go prev = function
    | [] -> []
    | occ :: rest ->
        let dir = if occ >= prev then `Enq else `Deq in
        (dir, occ) :: go occ rest
  in
  go 0 occs

(* --- single threshold --- *)

let test_single_marks_above_k () =
  let p = M.single_threshold ~k_bytes:3000 in
  let marks =
    drive p (steps_of_walk [ 1500; 3000; 4500; 6000 ]) |> List.filter_map Fun.id
  in
  Alcotest.check
    (Alcotest.list Alcotest.bool)
    "marks strictly above K"
    [ false; false; true; true ]
    marks

let test_single_is_stateless () =
  let p = M.single_threshold ~k_bytes:3000 in
  (* Marking reflects only the instantaneous occupancy. *)
  ignore (drive p (steps_of_walk [ 6000; 1500 ]));
  let marks =
    drive p [ (`Enq, 3000) ] |> List.filter_map Fun.id
  in
  Alcotest.check (Alcotest.list Alcotest.bool) "at K does not mark" [ false ]
    marks

let test_single_validation () =
  checkb "negative K raises" true
    (match M.single_threshold ~k_bytes:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- double threshold (K1 < K2, the simulation configuration) --- *)

let k1 = 3000 (* 2 packets *)
let k2 = 6000 (* 4 packets *)

let test_dt_starts_at_k1_rising () =
  let p = M.double_threshold ~k1_bytes:k1 ~k2_bytes:k2 () in
  let marks =
    drive p (steps_of_walk [ 1500; 3000; 4500; 6000; 7500 ])
    |> List.filter_map Fun.id
  in
  Alcotest.check
    (Alcotest.list Alcotest.bool)
    "on from the K1 up-crossing"
    [ false; false; true; true; true ]
    marks

let test_dt_stops_at_k2_falling () =
  let p = M.double_threshold ~k1_bytes:k1 ~k2_bytes:k2 () in
  (* rise to 9000, then fall: marking stops when occupancy falls to K2 *)
  ignore (drive p (steps_of_walk [ 4500; 9000 ]));
  ignore (drive p [ (`Deq, 7500) ]);
  (* still above K2: a new arrival is marked *)
  let still = drive p [ (`Enq, 9000) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "still marking above K2"
    [ true ] still;
  ignore (drive p [ (`Deq, 7500); (`Deq, 6000); (`Deq, 4500) ]);
  (* now below K2 on the way down: off, even though above K1 *)
  let after = drive p [ (`Enq, 4600) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "off below K2 on descent"
    [ false ] after

let test_dt_turnaround_inside_band () =
  let p = M.double_threshold ~k1_bytes:k1 ~k2_bytes:k2 () in
  (* Rise through K1 into the band, turn around before K2, fall below K1:
     marking on inside the band (entered rising), off below K1. *)
  let up = drive p (steps_of_walk [ 3000; 4500 ]) |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "on in band (rising)"
    [ false; true ] up;
  ignore (drive p [ (`Deq, 4000) ]);
  let still = drive p [ (`Enq, 4500) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool)
    "held while wandering in band" [ true ] still;
  ignore (drive p [ (`Deq, 3000) ]);
  let off = drive p [ (`Enq, 3000) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "off at/below K1" [ false ] off

let test_dt_reentry_from_above () =
  let p = M.double_threshold ~k1_bytes:k1 ~k2_bytes:k2 () in
  (* Fall into the band from above K2 (marking off), wander, then rise
     above K2 again: marking must resume (no dead zone). *)
  ignore (drive p (steps_of_walk [ 4500; 9000 ]));
  ignore (drive p [ (`Deq, 5900) ]);
  let in_band = drive p [ (`Enq, 6000) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "off in band from above"
    [ false ] in_band;
  let above = drive p [ (`Enq, 6100) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "resumes above K2" [ true ]
    above

(* --- double threshold, thermostat configuration (K1 > K2) --- *)

let test_dt_thermostat () =
  (* on above 6000, held in (3000,6000], off at/below 3000 *)
  let p = M.double_threshold ~k1_bytes:6000 ~k2_bytes:3000 () in
  let up =
    drive p (steps_of_walk [ 3000; 4500; 6000; 6100 ]) |> List.filter_map Fun.id
  in
  Alcotest.check
    (Alcotest.list Alcotest.bool)
    "on only above hi"
    [ false; false; false; true ]
    up;
  ignore (drive p [ (`Deq, 4500) ]);
  let held = drive p [ (`Enq, 4600) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "held on descent into band"
    [ true ] held;
  ignore (drive p [ (`Deq, 3000) ]);
  let off = drive p [ (`Enq, 3100) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "off below lo" [ false ] off

let test_dt_validation () =
  checkb "negative raises" true
    (match M.double_threshold ~k1_bytes:(-1) ~k2_bytes:5 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_bytes_of_packets () =
  checki "default packet size" 60000 (M.bytes_of_packets 40);
  checkb "negative raises" true
    (match M.bytes_of_packets (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Property: with K1 = K2 = K the double threshold behaves exactly like the
   single threshold on any occupancy walk. *)
let prop_dt_degenerates_to_single =
  QCheck.Test.make ~count:500
    ~name:"double threshold with K1=K2 equals single threshold"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 20))
    (fun occupancies_pkts ->
      let k = 7500 in
      let walk = steps_of_walk (List.map (fun p -> p * 1500) occupancies_pkts) in
      let single = M.single_threshold ~k_bytes:k in
      let double = M.double_threshold ~k1_bytes:k ~k2_bytes:k () in
      drive single walk = drive double walk)

(* Property: the double threshold marks a superset of nothing and is always
   off at/below min(K1,K2) and on above max(K1,K2). *)
let prop_dt_zone_bounds =
  QCheck.Test.make ~count:500 ~name:"double threshold respects its zones"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 200) (int_bound 20))
        (int_range 1 10) (int_range 1 10))
    (fun (occupancies_pkts, a, b) ->
      let k1 = a * 1500 and k2 = b * 1500 in
      let lo = Int.min k1 k2 and hi = Int.max k1 k2 in
      let walk = steps_of_walk (List.map (fun p -> p * 1500) occupancies_pkts) in
      let p = M.double_threshold ~k1_bytes:k1 ~k2_bytes:k2 () in
      List.for_all2
        (fun (dir, occ) verdict ->
          match (dir, verdict) with
          | `Deq, None -> true
          | `Enq, Some marked ->
              if occ <= lo then not marked
              else if occ > hi then marked
              else true
          | _ -> false)
        walk (drive p walk))

(* --- scaled (limit-relative) thresholds --- *)

let test_scaled_single_tracks_limit () =
  let p = M.single_threshold_scaled ~k_frac:0.5 in
  p.Marking.on_limit ~limit_bytes:6000;
  (* K = 3000 *)
  checkb "marks above K" true (p.Marking.on_enqueue ~bytes:3100 ~packets:2);
  checkb "not at K" false (p.Marking.on_enqueue ~bytes:3000 ~packets:2);
  (* The buffer manager squeezes the port: K follows the limit down. *)
  p.Marking.on_limit ~limit_bytes:2000;
  checkb "K moved with the limit" true
    (p.Marking.on_enqueue ~bytes:1100 ~packets:1);
  checkb "below the moved K" false
    (p.Marking.on_enqueue ~bytes:1000 ~packets:1)

let test_scaled_equals_absolute_on_static_limit () =
  (* With one on_limit call (the Static-buffer case) the scaled policy
     is the absolute policy at frac x capacity, on any walk. *)
  let walk = steps_of_walk [ 1500; 3000; 4500; 6000; 3000; 1500; 4500 ] in
  let scaled = M.single_threshold_scaled ~k_frac:0.25 in
  scaled.Marking.on_limit ~limit_bytes:12_000;
  let absolute = M.single_threshold ~k_bytes:3000 in
  checkb "single: scaled = absolute" true
    (drive scaled walk = drive absolute walk);
  let dscaled = M.double_threshold_scaled ~k1_frac:0.25 ~k2_frac:0.5 () in
  dscaled.Marking.on_limit ~limit_bytes:12_000;
  let dabsolute = M.double_threshold ~k1_bytes:3000 ~k2_bytes:6000 () in
  checkb "double: scaled = absolute" true
    (drive dscaled walk = drive dabsolute walk)

let test_scaled_double_band_moves () =
  let p = M.double_threshold_scaled ~k1_frac:0.25 ~k2_frac:0.5 () in
  p.Marking.on_limit ~limit_bytes:12_000;
  (* band (3000, 6000], directional: on when entered rising *)
  let up = drive p (steps_of_walk [ 1500; 4500 ]) |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "on in band (rising)"
    [ false; true ] up;
  (* The limit doubles: the same occupancy is now below K1 = 6000, and
     the very next consultation sees the moved band. *)
  p.Marking.on_limit ~limit_bytes:24_000;
  let after = drive p [ (`Enq, 4500) ] |> List.filter_map Fun.id in
  Alcotest.check (Alcotest.list Alcotest.bool) "off below the moved band"
    [ false ] after

let test_scaled_validation () =
  checkb "frac above 1 raises" true
    (match M.single_threshold_scaled ~k_frac:1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "negative frac raises" true
    (match M.double_threshold_scaled ~k1_frac:(-0.1) ~k2_frac:0.5 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_scaled_quantisation () =
  (* Fractions are floor-quantised to 1/1024ths: k_frac = 0.3 becomes
     307/1024, so at limit 1024 the byte threshold is exactly 307. *)
  let p = M.single_threshold_scaled ~k_frac:0.3 in
  p.Marking.on_limit ~limit_bytes:1024;
  checkb "marks just above the quantised K" true
    (p.Marking.on_enqueue ~bytes:308 ~packets:1);
  checkb "not at the quantised K" false
    (p.Marking.on_enqueue ~bytes:307 ~packets:1)

(* --- Dctcp_cc --- *)

type fake = { mutable cwnd : float; mutable ssthresh : float }

let fake_api () =
  let f = { cwnd = 10.; ssthresh = 1e9 } in
  let api =
    {
      Tcp.Cc.now = (fun () -> Engine.Time.zero);
      flow = 0;
      tracer = Obs.Trace.null;
      get_cwnd = (fun () -> f.cwnd);
      set_cwnd = (fun c -> f.cwnd <- Float.max 1. c);
      get_ssthresh = (fun () -> f.ssthresh);
      set_ssthresh = (fun s -> f.ssthresh <- s);
    }
  in
  (f, api)

let mk_cc ?(g = 1. /. 16.) ?(init_alpha = 0.) api =
  (Dctcp.Dctcp_cc.cc ~params:{ Dctcp.Dctcp_cc.g; init_alpha } ()) api

let alpha_of cc =
  match cc.Tcp.Cc.alpha with
  | [| a |] -> a
  | _ -> Alcotest.fail "dctcp must expose alpha"

(* Feed [windows] windows of [size] acks each, marking a fraction. *)
let feed cc ~windows ~size ~marked_fraction =
  let seq = ref 0 in
  for _ = 1 to windows do
    for i = 0 to size - 1 do
      let ece = float_of_int i < marked_fraction *. float_of_int size in
      incr seq;
      cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece ~snd_una:!seq
        ~snd_nxt:(!seq + size)
    done
  done

let test_alpha_starts_at_init () =
  let _, api = fake_api () in
  let cc = mk_cc ~init_alpha:0.7 api in
  checkf "initial alpha" 0.7 (alpha_of cc)

let test_alpha_converges_to_one_under_full_marking () =
  let _, api = fake_api () in
  let cc = mk_cc api in
  feed cc ~windows:100 ~size:10 ~marked_fraction:1.;
  checkb "alpha near 1" true (alpha_of cc > 0.95)

let test_alpha_decays_without_marking () =
  let _, api = fake_api () in
  let cc = mk_cc ~init_alpha:1. api in
  feed cc ~windows:100 ~size:10 ~marked_fraction:0.;
  checkb "alpha near 0" true (alpha_of cc < 0.05)

let test_alpha_tracks_marked_fraction () =
  let _, api = fake_api () in
  let cc = mk_cc api in
  feed cc ~windows:300 ~size:10 ~marked_fraction:0.4;
  checkb "alpha tracks F" true (Float.abs (alpha_of cc -. 0.4) < 0.05)

let test_alpha_ewma_gain () =
  let _, api = fake_api () in
  let cc = mk_cc ~g:0.5 ~init_alpha:0. api in
  (* One fully-marked window: alpha = 0.5 * 1.0. The first ack closes the
     (empty) initial window, so feed two windows and read after. *)
  feed cc ~windows:1 ~size:10 ~marked_fraction:1.;
  checkb "one-window update applied" true (alpha_of cc > 0.4)

let test_reduction_proportional_to_alpha () =
  let f, api = fake_api () in
  let cc = mk_cc ~init_alpha:0.5 api in
  f.cwnd <- 20.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:5 ~snd_nxt:25;
  (* cwnd * (1 - alpha/2) = 20 * 0.75 = 15 *)
  checkf ~eps:1e-6 "proportional backoff" 15. f.cwnd;
  checkf ~eps:1e-6 "ssthresh follows" 15. f.ssthresh

let test_reduction_once_per_window () =
  let f, api = fake_api () in
  let cc = mk_cc ~init_alpha:1.0 api in
  f.cwnd <- 16.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:5 ~snd_nxt:20;
  checkf "first reduction" 8. f.cwnd;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:10 ~snd_nxt:21;
  checkf "no second reduction in window" 8. f.cwnd;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:21 ~snd_nxt:40;
  checkf "reduces in next window" 4. f.cwnd

let test_growth_like_reno_without_marks () =
  let f, api = fake_api () in
  let cc = mk_cc api in
  f.cwnd <- 2.;
  f.ssthresh <- 8.;
  cc.Tcp.Cc.on_ack ~newly_acked:2 ~ece:false ~snd_una:2 ~snd_nxt:4;
  checkf "slow start" 4. f.cwnd;
  f.cwnd <- 10.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:false ~snd_una:3 ~snd_nxt:14;
  checkf ~eps:1e-9 "congestion avoidance" 10.1 f.cwnd

let test_loss_behaviour () =
  let f, api = fake_api () in
  let cc = mk_cc api in
  f.cwnd <- 16.;
  cc.Tcp.Cc.on_fast_retransmit ();
  checkf "halve on fast rtx" 8. f.cwnd;
  cc.Tcp.Cc.on_timeout ();
  checkf "collapse on timeout" 1. f.cwnd;
  checkf "ssthresh half of pre-timeout" 4. f.ssthresh

let test_cc_validation () =
  checkb "bad g raises" true
    (match
       ignore
         (Dctcp.Dctcp_cc.cc ~params:{ Dctcp.Dctcp_cc.g = 0.; init_alpha = 0. } ()
           : Tcp.Cc.factory)
     with
    | exception Invalid_argument _ -> true
    | () -> false);
  checkb "bad init_alpha raises" true
    (match
       ignore
         (Dctcp.Dctcp_cc.cc
            ~params:{ Dctcp.Dctcp_cc.g = 0.1; init_alpha = 2. }
            ()
           : Tcp.Cc.factory)
     with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_default_params () =
  checkf ~eps:1e-12 "g is 1/16" (1. /. 16.) Dctcp.Dctcp_cc.default_params.Dctcp.Dctcp_cc.g;
  checkf "alpha starts conservative" 1.
    Dctcp.Dctcp_cc.default_params.Dctcp.Dctcp_cc.init_alpha

(* --- penalty hook & D2TCP --- *)

let fake_api_with_clock () =
  let f = { cwnd = 10.; ssthresh = 1e9 } in
  let clock = ref Engine.Time.zero in
  let api =
    {
      Tcp.Cc.now = (fun () -> !clock);
      flow = 0;
      tracer = Obs.Trace.null;
      get_cwnd = (fun () -> f.cwnd);
      set_cwnd = (fun c -> f.cwnd <- Float.max 1. c);
      get_ssthresh = (fun () -> f.ssthresh);
      set_ssthresh = (fun s -> f.ssthresh <- s);
    }
  in
  (f, api, clock)

let test_penalty_hook_overrides_alpha () =
  let f, api, _ = fake_api_with_clock () in
  let cc =
    (Dctcp.Dctcp_cc.cc_with_penalty
       ~params:{ Dctcp.Dctcp_cc.g = 0.0625; init_alpha = 1.0 }
       ~penalty:(fun _ -> 0.2)
       ())
      api
  in
  f.cwnd <- 20.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:5 ~snd_nxt:25;
  (* reduction uses the penalty 0.2, not alpha=1: 20 * (1 - 0.1) = 18 *)
  checkf ~eps:1e-6 "penalty-gated reduction" 18. f.cwnd

let test_penalty_clamped () =
  let f, api, _ = fake_api_with_clock () in
  let cc =
    (Dctcp.Dctcp_cc.cc_with_penalty ~penalty:(fun _ -> 5.) ()) api
  in
  f.cwnd <- 20.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:5 ~snd_nxt:25;
  (* clamped to 1: halves like classic TCP *)
  checkf ~eps:1e-6 "penalty clamped at 1" 10. f.cwnd

let test_penalty_context_fields () =
  let f, api, clock = fake_api_with_clock () in
  let seen = ref None in
  let cc =
    (Dctcp.Dctcp_cc.cc_with_penalty
       ~params:{ Dctcp.Dctcp_cc.g = 0.5; init_alpha = 0.6 }
       ~penalty:(fun ctx ->
         seen := Some ctx;
         ctx.Dctcp.Dctcp_cc.alpha)
       ())
      api
  in
  f.cwnd <- 12.;
  clock := Engine.Time.of_ms 3.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:7 ~snd_nxt:20;
  match !seen with
  | Some ctx ->
      checkf "alpha passed" 0.6 ctx.Dctcp.Dctcp_cc.alpha;
      checkf "cwnd passed" 12. ctx.Dctcp.Dctcp_cc.cwnd;
      checki "snd_una passed" 7 ctx.Dctcp.Dctcp_cc.snd_una;
      checkf "now passed" 3e-3 (Engine.Time.to_sec ctx.Dctcp.Dctcp_cc.now)
  | None -> Alcotest.fail "penalty not consulted"

(* Plain [cc] cuts without the penalty hook; the identity hook must
   drive the same window, alpha and cut records over any ACK stream.
   Each step is (newly_acked, ECE, snd_nxt - snd_una, loss event),
   with the clock moving 1.2 us per ACK. *)
let prop_identity_penalty_matches_cc =
  let step =
    QCheck.Gen.(
      quad (int_range 0 3) bool (int_range 0 24)
        (frequencyl [ (30, `None); (1, `Fast_retransmit); (1, `Timeout) ]))
  in
  QCheck.Test.make ~count:300
    ~name:"cc () = cc_with_penalty (fun c -> c.alpha) on random ACK streams"
    QCheck.(
      make
        Gen.(
          triple
            (oneofl [ 1. /. 16.; 0.25; 1. ])
            (float_range 0. 1.)
            (list_size (int_range 1 400) step)))
    (fun (g, init_alpha, steps) ->
      let params = { Dctcp.Dctcp_cc.g; init_alpha } in
      let run factory =
        let f, api, clock = fake_api_with_clock () in
        let cuts = ref [] in
        let tracer =
          Obs.Trace.create ~classes:[ Obs.Trace.C_cwnd_cut ]
            (Obs.Trace.Fn (fun r -> cuts := Obs.Trace.record_to_json r :: !cuts))
        in
        let cc = factory { api with Tcp.Cc.tracer } in
        let una = ref 0 and trail = ref [] in
        List.iter
          (fun (acked, ece, ahead, loss) ->
            una := !una + acked;
            clock := Engine.Time.add !clock (Engine.Time.span_of_int_ns 1_200);
            cc.Tcp.Cc.on_ack ~newly_acked:acked ~ece ~snd_una:!una
              ~snd_nxt:(!una + ahead);
            (match loss with
            | `None -> ()
            | `Fast_retransmit -> cc.Tcp.Cc.on_fast_retransmit ()
            | `Timeout -> cc.Tcp.Cc.on_timeout ());
            trail := (f.cwnd, f.ssthresh, alpha_of cc) :: !trail)
          steps;
        (!trail, !cuts)
      in
      let plain_trail, plain_cuts = run (Dctcp.Dctcp_cc.cc ~params ()) in
      let hooked_trail, hooked_cuts =
        run
          (Dctcp.Dctcp_cc.cc_with_penalty ~params
             ~penalty:(fun c -> c.Dctcp.Dctcp_cc.alpha)
             ())
      in
      let bits x = Int64.bits_of_float x in
      List.length plain_cuts = List.length hooked_cuts
      && List.for_all2 Obs.Json.equal plain_cuts hooked_cuts
      && List.for_all2
           (fun (c, s, a) (c', s', a') ->
             Int64.equal (bits c) (bits c')
             && Int64.equal (bits s) (bits s')
             && Int64.equal (bits a) (bits a'))
           plain_trail hooked_trail)

let test_imminence_formula () =
  let params = Dctcp.D2tcp_cc.default_deadline_params in
  (* Tc = 100 segments * 100us / 10 = 1 ms; D = 2 ms -> d = 0.5 *)
  let d =
    Dctcp.D2tcp_cc.imminence ~params ~remaining_segments:100 ~cwnd:10.
      ~rtt:(Engine.Time.span_of_us 100.)
      ~time_left:(Engine.Time.span_of_ms 2.)
  in
  checkf ~eps:1e-9 "far deadline" 0.5 d;
  (* Tc = 1 ms, D = 0.5 ms -> d = 2.0 *)
  let d2 =
    Dctcp.D2tcp_cc.imminence ~params ~remaining_segments:100 ~cwnd:10.
      ~rtt:(Engine.Time.span_of_us 100.)
      ~time_left:(Engine.Time.span_of_us 500.)
  in
  checkf ~eps:1e-9 "near deadline" 2.0 d2;
  (* expired deadline -> maximum urgency *)
  let d3 =
    Dctcp.D2tcp_cc.imminence ~params ~remaining_segments:1 ~cwnd:10.
      ~rtt:(Engine.Time.span_of_us 100.) ~time_left:(Engine.Time.span_of_int_ns 0)
  in
  checkf "expired" 2.0 d3

let test_imminence_clamping () =
  let params =
    { Dctcp.D2tcp_cc.default_deadline_params with d_min = 0.25; d_max = 4. }
  in
  let d_lo =
    Dctcp.D2tcp_cc.imminence ~params ~remaining_segments:1 ~cwnd:100.
      ~rtt:(Engine.Time.span_of_us 1.)
      ~time_left:(Engine.Time.span_of_sec 10.)
  in
  checkf "clamped low" 0.25 d_lo;
  let d_hi =
    Dctcp.D2tcp_cc.imminence ~params ~remaining_segments:100000 ~cwnd:1.
      ~rtt:(Engine.Time.span_of_ms 1.)
      ~time_left:(Engine.Time.span_of_us 1.)
  in
  checkf "clamped high" 4. d_hi

let drive_d2tcp_reduction ~deadline_ms ~alpha =
  let f, api, clock = fake_api_with_clock () in
  let cc =
    (Dctcp.D2tcp_cc.cc
       ~params:
         {
           Dctcp.D2tcp_cc.default_deadline_params with
           base = { Dctcp.Dctcp_cc.g = 0.5; init_alpha = alpha };
         }
       ~total_segments:1000
       ~deadline:(Engine.Time.of_ms deadline_ms)
       ())
      api
  in
  f.cwnd <- 20.;
  clock := Engine.Time.of_ms 1.;
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:5 ~snd_nxt:25;
  f.cwnd

let test_d2tcp_near_deadline_backs_off_less () =
  (* same alpha, same progress; only the time to deadline differs *)
  let near = drive_d2tcp_reduction ~deadline_ms:1.5 ~alpha:0.5 in
  let far = drive_d2tcp_reduction ~deadline_ms:1000. ~alpha:0.5 in
  checkb
    (Printf.sprintf "near keeps more window (%.2f > %.2f)" near far)
    true (near > far);
  (* DCTCP's reduction with alpha=0.5 sits between the two extremes *)
  let dctcp = 20. *. (1. -. (0.5 /. 2.)) in
  checkb "near >= dctcp" true (near >= dctcp -. 1e-9);
  checkb "far <= dctcp" true (far <= dctcp +. 1e-9)

let test_d2tcp_completed_flow_falls_back_to_alpha () =
  let f, api, clock = fake_api_with_clock () in
  let cc =
    (Dctcp.D2tcp_cc.cc ~total_segments:10
       ~deadline:(Engine.Time.of_ms 1.) ())
      api
  in
  f.cwnd <- 16.;
  clock := Engine.Time.of_ms 5.;
  (* snd_una beyond total: remaining <= 0, penalty = alpha (init 1.0) *)
  cc.Tcp.Cc.on_ack ~newly_acked:1 ~ece:true ~snd_una:15 ~snd_nxt:20;
  checkf ~eps:1e-6 "plain dctcp reduction" 8. f.cwnd

let test_d2tcp_validation () =
  checkb "bad total raises" true
    (match
       ignore
         (Dctcp.D2tcp_cc.cc ~total_segments:0
            ~deadline:(Engine.Time.of_ms 1.) ()
           : Tcp.Cc.factory)
     with
    | exception Invalid_argument _ -> true
    | () -> false);
  checkb "bad clamp raises" true
    (match
       ignore
         (Dctcp.D2tcp_cc.cc
            ~params:
              { Dctcp.D2tcp_cc.default_deadline_params with d_min = 3.; d_max = 2. }
            ~total_segments:10
            ~deadline:(Engine.Time.of_ms 1.) ()
           : Tcp.Cc.factory)
     with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- Protocol bundles --- *)

let test_protocol_names () =
  Alcotest.check Alcotest.string "dctcp" "DCTCP"
    (Dctcp.Protocol.dctcp ~k_bytes:60000 ()).Dctcp.Protocol.name;
  Alcotest.check Alcotest.string "dt" "DT-DCTCP"
    (Dctcp.Protocol.dt_dctcp ~k1_bytes:45000 ~k2_bytes:75000 ())
      .Dctcp.Protocol.name;
  Alcotest.check Alcotest.string "reno" "Reno"
    (Dctcp.Protocol.reno ()).Dctcp.Protocol.name;
  Alcotest.check Alcotest.string "ecn-reno" "ECN-Reno"
    (Dctcp.Protocol.ecn_reno ~k_bytes:60000).Dctcp.Protocol.name

let test_protocol_fresh_marking_instances () =
  let proto = Dctcp.Protocol.dt_dctcp ~k1_bytes:3000 ~k2_bytes:6000 () in
  let m1 = proto.Dctcp.Protocol.marking () in
  let m2 = proto.Dctcp.Protocol.marking () in
  (* Drive m1 into the marking state; m2 must be unaffected. *)
  ignore (m1.Marking.on_enqueue ~bytes:4500 ~packets:3);
  checkb "m2 state independent" false
    (m2.Marking.on_enqueue ~bytes:1000 ~packets:1)

let test_protocol_pkts_constructors () =
  let p = Dctcp.Protocol.dctcp_pkts ~k:40 () in
  let m = p.Dctcp.Protocol.marking () in
  checkb "marks above 40 pkts" true
    (m.Marking.on_enqueue ~bytes:61500 ~packets:41);
  let p2 = Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 () in
  let m2 = p2.Dctcp.Protocol.marking () in
  checkb "dt marks above k1 rising" true
    (m2.Marking.on_enqueue ~bytes:46500 ~packets:31)

(* --- Reno_cc: the loss-based competitor --- *)

let mk_newreno api = Dctcp.Reno_cc.newreno api

let test_newreno_ignores_ece () =
  let f, api = fake_api () in
  let cc = mk_newreno api in
  checkb "no alpha" true (cc.Tcp.Cc.alpha = [||]);
  (* Slow start, every ACK carrying ECE: a loss-based sender must keep
     growing as if the marks were not there. *)
  cc.Tcp.Cc.on_ack ~newly_acked:2 ~ece:true ~snd_una:2 ~snd_nxt:12;
  checkf "ECE ignored, window grew" 12. f.cwnd

let test_newreno_halves_once_per_episode () =
  let f, api = fake_api () in
  let cc = mk_newreno api in
  f.cwnd <- 16.;
  f.ssthresh <- 8.;
  cc.Tcp.Cc.on_ack ~newly_acked:0 ~ece:false ~snd_una:100 ~snd_nxt:200;
  cc.Tcp.Cc.on_fast_retransmit ();
  checkf "first retransmit halves" 8. f.cwnd;
  (* Another fast retransmit while snd_una is still below the recovery
     point (200): same loss episode, window untouched. *)
  cc.Tcp.Cc.on_ack ~newly_acked:0 ~ece:false ~snd_una:150 ~snd_nxt:210;
  cc.Tcp.Cc.on_fast_retransmit ();
  checkf "same episode: no second halving" 8. f.cwnd;
  (* snd_una passes the recovery point: the next loss is a new episode. *)
  cc.Tcp.Cc.on_ack ~newly_acked:0 ~ece:false ~snd_una:210 ~snd_nxt:260;
  cc.Tcp.Cc.on_fast_retransmit ();
  checkf "new episode halves again" 4. f.cwnd

let test_newreno_timeout_collapses () =
  let f, api = fake_api () in
  let cc = mk_newreno api in
  f.cwnd <- 16.;
  cc.Tcp.Cc.on_ack ~newly_acked:0 ~ece:false ~snd_una:100 ~snd_nxt:200;
  cc.Tcp.Cc.on_timeout ();
  checkf "collapse to 1" 1. f.cwnd;
  checkf "ssthresh = cwnd/2" 8. f.ssthresh;
  (* The timeout opened an episode too: a straggling fast retransmit
     below its recovery point must not halve the recovering window. *)
  cc.Tcp.Cc.on_ack ~newly_acked:0 ~ece:false ~snd_una:150 ~snd_nxt:210;
  cc.Tcp.Cc.on_fast_retransmit ();
  checkf "no halving inside the timeout episode" 1. f.cwnd

let test_newreno_growth () =
  let f, api = fake_api () in
  let cc = mk_newreno api in
  (* slow start: +1 segment per newly acked segment *)
  cc.Tcp.Cc.on_ack ~newly_acked:3 ~ece:false ~snd_una:3 ~snd_nxt:13;
  checkf "slow start growth" 13. f.cwnd;
  (* congestion avoidance: +acked/cwnd *)
  f.ssthresh <- 10.;
  cc.Tcp.Cc.on_ack ~newly_acked:13 ~ece:false ~snd_una:16 ~snd_nxt:29;
  checkf "linear growth" 14. f.cwnd

(* --- The steady-state ACK path's allocation --- *)

(* Minor words per delivered segment between 50 ms and 250 ms of an
   N-flow dumbbell (10 Gbps, 100 us RTT), by then past slow start. The
   engine, net and traced packet paths allocate nothing, so this is the
   sender's ACK path: one box per growing ACK (the argument of
   [set_cwnd]) and one per window cut, about 1.4 words a segment. The
   window getters allocated 2 words a call before the window was stored
   boxed, and each cut boxed its target once per setter: 4.2 words. *)
let ack_path_words (proto : Dctcp.Protocol.t) ~n =
  let sim = Engine.Sim.create ~seed:7L () in
  let net =
    Net.Topology.dumbbell sim ~n_senders:n ~bottleneck_rate_bps:10e9
      ~rtt:(Engine.Time.span_of_us 100.) ~buffer_bytes:(1000 * 1500)
      ~marking:(proto.Dctcp.Protocol.marking ())
      ()
  in
  let flows =
    Array.mapi
      (fun i src ->
        Tcp.Flow.create sim ~src ~dst:net.Net.Topology.receiver ~flow:i
          ~cc:proto.Dctcp.Protocol.cc ())
      net.Net.Topology.senders
  in
  Array.iteri
    (fun i f ->
      Tcp.Flow.start_at f (Engine.Time.of_us (float_of_int i *. 10.)))
    flows;
  let delivered () =
    Array.fold_left (fun acc f -> acc + Tcp.Flow.segments_delivered f) 0 flows
  in
  Engine.Sim.run ~until:(Engine.Time.of_ms 50.) sim;
  let segs = delivered () in
  let before = Gc.minor_words () in
  Engine.Sim.run ~until:(Engine.Time.of_ms 250.) sim;
  let words = Gc.minor_words () -. before in
  words /. float_of_int (delivered () - segs)

let test_ack_path_budget () =
  List.iter
    (fun (proto, n) ->
      let w = ack_path_words proto ~n in
      checkb
        (Printf.sprintf "%s N=%d: %.2f words per segment <= 1.6"
           proto.Dctcp.Protocol.name n w)
        true (w <= 1.6))
    [
      (Dctcp.Protocol.dctcp_pkts ~k:40 (), 10);
      (Dctcp.Protocol.dctcp_pkts ~k:40 (), 100);
      (Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 (), 10);
      (Dctcp.Protocol.dt_dctcp_pkts ~k1:30 ~k2:50 (), 100);
    ]

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "dctcp.single_threshold",
      [
        Alcotest.test_case "marks above K" `Quick test_single_marks_above_k;
        Alcotest.test_case "stateless" `Quick test_single_is_stateless;
        Alcotest.test_case "validation" `Quick test_single_validation;
      ] );
    ( "dctcp.double_threshold",
      [
        Alcotest.test_case "starts at K1 rising" `Quick
          test_dt_starts_at_k1_rising;
        Alcotest.test_case "stops at K2 falling" `Quick
          test_dt_stops_at_k2_falling;
        Alcotest.test_case "turnaround inside band" `Quick
          test_dt_turnaround_inside_band;
        Alcotest.test_case "re-entry from above" `Quick
          test_dt_reentry_from_above;
        Alcotest.test_case "thermostat configuration" `Quick test_dt_thermostat;
        Alcotest.test_case "validation" `Quick test_dt_validation;
        Alcotest.test_case "bytes_of_packets" `Quick test_bytes_of_packets;
        qtest prop_dt_degenerates_to_single;
        qtest prop_dt_zone_bounds;
      ] );
    ( "dctcp.scaled_thresholds",
      [
        Alcotest.test_case "single tracks the limit" `Quick
          test_scaled_single_tracks_limit;
        Alcotest.test_case "static limit = absolute policy" `Quick
          test_scaled_equals_absolute_on_static_limit;
        Alcotest.test_case "band moves with the limit" `Quick
          test_scaled_double_band_moves;
        Alcotest.test_case "validation" `Quick test_scaled_validation;
        Alcotest.test_case "1/1024 quantisation" `Quick
          test_scaled_quantisation;
      ] );
    ( "dctcp.newreno",
      [
        Alcotest.test_case "ECE ignored" `Quick test_newreno_ignores_ece;
        Alcotest.test_case "halves once per episode" `Quick
          test_newreno_halves_once_per_episode;
        Alcotest.test_case "timeout collapses" `Quick
          test_newreno_timeout_collapses;
        Alcotest.test_case "growth phases" `Quick test_newreno_growth;
      ] );
    ( "dctcp.cc",
      [
        Alcotest.test_case "alpha init" `Quick test_alpha_starts_at_init;
        Alcotest.test_case "alpha -> 1 under full marking" `Quick
          test_alpha_converges_to_one_under_full_marking;
        Alcotest.test_case "alpha decays unmarked" `Quick
          test_alpha_decays_without_marking;
        Alcotest.test_case "alpha tracks marked fraction" `Quick
          test_alpha_tracks_marked_fraction;
        Alcotest.test_case "ewma gain applied" `Quick test_alpha_ewma_gain;
        Alcotest.test_case "proportional reduction" `Quick
          test_reduction_proportional_to_alpha;
        Alcotest.test_case "once per window" `Quick
          test_reduction_once_per_window;
        Alcotest.test_case "reno growth without marks" `Quick
          test_growth_like_reno_without_marks;
        Alcotest.test_case "loss behaviour" `Quick test_loss_behaviour;
        Alcotest.test_case "validation" `Quick test_cc_validation;
        Alcotest.test_case "paper defaults" `Quick test_default_params;
        Alcotest.test_case "ACK path words per segment" `Quick
          test_ack_path_budget;
      ] );
    ( "dctcp.d2tcp",
      [
        Alcotest.test_case "penalty hook overrides alpha" `Quick
          test_penalty_hook_overrides_alpha;
        Alcotest.test_case "penalty clamped" `Quick test_penalty_clamped;
        Alcotest.test_case "penalty context fields" `Quick
          test_penalty_context_fields;
        qtest prop_identity_penalty_matches_cc;
        Alcotest.test_case "imminence formula" `Quick test_imminence_formula;
        Alcotest.test_case "imminence clamping" `Quick test_imminence_clamping;
        Alcotest.test_case "near deadline backs off less" `Quick
          test_d2tcp_near_deadline_backs_off_less;
        Alcotest.test_case "completed flow falls back" `Quick
          test_d2tcp_completed_flow_falls_back_to_alpha;
        Alcotest.test_case "validation" `Quick test_d2tcp_validation;
      ] );
    ( "dctcp.protocol",
      [
        Alcotest.test_case "names" `Quick test_protocol_names;
        Alcotest.test_case "fresh marking instances" `Quick
          test_protocol_fresh_marking_instances;
        Alcotest.test_case "packet-denominated constructors" `Quick
          test_protocol_pkts_constructors;
      ] );
  ]
