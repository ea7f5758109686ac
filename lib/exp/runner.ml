type outcome = {
  spec : Spec.t;
  result : Outcome.t;
  manifest : Obs.Manifest.t;
}

let metric snapshot name =
  match List.find_opt (fun (k, _) -> String.equal k name) snapshot with
  | Some (_, v) -> Some v
  | None -> None

(* The analyzer band is the marking operating point of the protocol
   under test. Single-threshold protocols get a degenerate band widened
   by one segment either side of K, so instantaneous-marking chatter
   around the threshold still registers as band crossings; loss-based
   protocols have no marking threshold at all, which disables the cycle
   detector. Scaled protocols mark at fractions of the effective limit,
   so their band needs the steady-state limit: under [Static] that is
   the configured capacity; under Dynamic Threshold a single loaded
   port whose queue parks at [f x limit] settles at the fixed point
   [limit = alpha (B - f limit)], i.e. [alpha B / (1 + alpha f)]. *)
let steady_limit ~(buffer : Net.Buffer_mgr.config) ~buffer_bytes ~frac =
  match buffer with
  | Net.Buffer_mgr.Static -> float_of_int buffer_bytes
  | Net.Buffer_mgr.Dynamic_threshold { pool_bytes; alpha } ->
      alpha *. float_of_int pool_bytes /. (1. +. (alpha *. frac))

let band_of (p : Spec.protocol) ~buffer ~buffer_bytes ~segment_bytes =
  match p with
  | Spec.Dctcp { k_bytes; _ } | Spec.Ecn_reno { k_bytes } ->
      Some (k_bytes - segment_bytes, k_bytes + segment_bytes)
  | Spec.Dt_dctcp { k1_bytes; k2_bytes; _ } -> Some (k1_bytes, k2_bytes)
  | Spec.Reno | Spec.Newreno -> None
  | Spec.Dctcp_scaled { k_frac; _ } ->
      let limit = steady_limit ~buffer ~buffer_bytes ~frac:k_frac in
      let k = int_of_float (k_frac *. limit) in
      Some (k - segment_bytes, k + segment_bytes)
  | Spec.Dt_dctcp_scaled { k1_frac; k2_frac; _ } ->
      let frac = (k1_frac +. k2_frac) /. 2. in
      let limit = steady_limit ~buffer ~buffer_bytes ~frac in
      Some (int_of_float (k1_frac *. limit), int_of_float (k2_frac *. limit))

let default_sample_period = Engine.Time.span_of_us 20.

(* Every dumbbell schedule shares the one bottleneck the analyzer
   watches. The synchronization index counts the flows that live
   through the run: the Dynamic schedule's background flows, whose ids
   come first. *)
let analysis_config (spec : Spec.t) =
  match spec.workload with
  | Spec.Dumbbell c ->
      let module D = Workloads.Dumbbell in
      let n_flows, sampling =
        match c.D.schedule with
        | D.Longlived s -> (s.D.n_flows, s.D.trace_sampling)
        | D.Dynamic s -> (s.D.background_flows, None)
        | D.Convergence s -> (s.D.n_flows, None)
      in
      Some
        {
          Obs.Analyze.sample_period =
            Option.value sampling ~default:default_sample_period;
          band_bytes =
            band_of spec.protocol ~buffer:spec.buffer
              ~buffer_bytes:c.D.buffer_bytes ~segment_bytes:c.D.segment_bytes;
          n_flows;
          rtt = c.D.rtt;
          segment_bytes = c.D.segment_bytes;
        }
  | Spec.Fanin _ | Spec.Fattree _ -> None

let payload_of ctx proto (w : Spec.workload) =
  match w with
  | Spec.Dumbbell c -> Outcome.Dumbbell (Workloads.Dumbbell.run ctx proto c)
  | Spec.Fanin c -> Outcome.Fanin (Workloads.Fanin.run ctx proto c)
  | Spec.Fattree c -> Outcome.Fattree (Workloads.Fattree.run ctx proto c)

let run_one ?tracer ?on_sim ?(analyze = false) (spec : Spec.t) =
  let metrics = Obs.Metrics.create () in
  (* The analyzer tees into whatever tracer the caller supplied; with
     [analyze = false] nothing is constructed and the run — tracer
     plumbing included — is the one this runner always produced. *)
  let analyzer =
    if not analyze then None
    else
      Option.map (fun cfg -> Obs.Analyze.create cfg) (analysis_config spec)
  in
  let tracer =
    match (analyzer, tracer) with
    | None, None -> Obs.Trace.null
    | None, Some user -> user
    | Some an, None -> Obs.Analyze.tracer an
    | Some an, Some user -> Obs.Trace.tee user (Obs.Analyze.tracer an)
  in
  let ctx =
    {
      Workloads.Workload.tracer;
      metrics = Some metrics;
      faults = spec.faults;
      buffer = spec.buffer;
      on_sim = Option.value on_sim ~default:ignore;
    }
  in
  let result, wall_s =
    Obs.Profile.time (fun () ->
        match
          payload_of ctx (Spec.protocol_of spec.protocol) spec.workload
        with
        | payload -> Outcome.Done payload
        | exception exn ->
            Outcome.Failed
              { spec = spec.name; error = Printexc.to_string exn })
  in
  let snapshot = Obs.Metrics.snapshot metrics in
  let events =
    match metric snapshot "engine.events_processed" with
    | Some v -> int_of_float v
    | None -> 0
  in
  let analysis = Option.map Obs.Analyze.to_json analyzer in
  let manifest =
    Obs.Manifest.make ?analysis ~name:spec.name ~seed:(Spec.seed spec)
      ~params:[ ("spec", Spec.to_json spec) ]
      ~wall_clock_s:wall_s ~events ~metrics:snapshot ()
  in
  { spec; result; manifest }

(* Work-stealing over an atomic index. Each worker claims the next
   unclaimed spec and writes its outcome into that spec's slot, so the
   result array is in spec order no matter which domain ran what, and
   simulations themselves share no mutable state (each run builds its own
   Sim/Rng from the spec's seed). [Domain.join] gives the happens-before
   edge that makes the slot writes visible to the caller. *)
let run ?(jobs = 1) ?(analyze = false) specs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Exp.Runner.run: jobs = %d, need >= 1" jobs);
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let workers = Int.min jobs n in
  if workers <= 1 then Array.map (fun s -> run_one ~analyze s) specs
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <- Some (run_one ~analyze specs.(i));
        worker ()
      end
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.map
      (function
        | Some o -> o
        | None -> invalid_arg "Exp.Runner.run: unfilled slot")
      slots
  end
