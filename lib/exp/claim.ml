module Json = Obs.Json
module Time = Engine.Time

type rel = Lt | Le

type metric = {
  key : string;
  digits : int;
  read : Runner.outcome -> float option;
}

type t = {
  name : string;
  title : string;
  params : (string * Json.t) list;
  specs : quick:bool -> Spec.t list;
  metrics : metric list;
  gate : metric;
  rel : rel;
  dt : string;
  dctcp : string;
  validity : (Runner.outcome -> string option) list;
}

type status = Holds | Fails | Invalid

type verdict = {
  claim : string;
  point : string;
  status : status;
  detail : string;
}

type report = {
  table : Stats.Table.t;
  verdicts : verdict list;
  manifest : Obs.Manifest.t;
}

(* --- reading a run --- *)

let metric key digits read = { key; digits; read }

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

(* A quantity of the streaming analysis, if the run carries the block. *)
let analysis path (o : Runner.outcome) =
  List.fold_left
    (fun j k -> Option.bind j (Json.member k))
    o.manifest.Obs.Manifest.analysis path
  |> fun j -> Option.bind j number

(* A cycle quantity. Without a marking band the cycle detector is off,
   so the run has none. *)
let cycle key o =
  Option.bind
    (analysis [ "config"; "band_low_bytes" ] o)
    (fun _ -> analysis [ "cycles"; key ] o)

let recorded key (o : Runner.outcome) =
  List.find_map
    (fun (k, v) -> if String.equal k key then Some v else None)
    o.manifest.Obs.Manifest.metrics

let longlived f (o : Runner.outcome) =
  match o.result with
  | Outcome.Done (Outcome.Longlived r) -> Some (f r)
  | _ -> None

let fattree f (o : Runner.outcome) =
  match o.result with
  | Outcome.Done (Outcome.Fattree r) -> Some (f r)
  | _ -> None

(* [<family>/<protocol>/<point>[/...]] -> (protocol, point without '='). *)
let label (spec : Spec.t) =
  match String.split_on_char '/' spec.name with
  | _ :: proto :: point :: _ ->
      (proto, String.concat "" (String.split_on_char '=' point))
  | _ ->
      invalid_arg
        ("Exp.Claim: spec " ^ spec.name ^ " is not <family>/<protocol>/<point>")

let distinct xs =
  List.fold_left
    (fun acc x -> if List.exists (String.equal x) acc then acc else x :: acc)
    [] xs
  |> List.rev

(* --- the claims --- *)

let analysed key digits path = metric key digits (analysis path)
let occ_std = analysed "occ_std_pkts" 1 [ "occupancy"; "std_pkts" ]
let cycles = metric "cycles" 0 (cycle "count")
let amp_mean = metric "amp_mean_pkts" 1 (cycle "amp_mean_pkts")
let ints xs = Json.List (List.map (fun x -> Json.Int x) xs)

(* --quick halves the long-lived 100/200 ms windows. *)
let windows ~quick =
  if quick then (Some (Time.span_of_ms 50.), Some (Time.span_of_ms 100.))
  else (None, None)

(* The paper's headline: the hysteresis band keeps DT-DCTCP's peak-trough
   amplitude strictly below DCTCP's at every N. *)
let oscillation =
  {
    name = "oscillation";
    title = "Oscillation: streaming-analyzer N-sweep (DCTCP vs DT-DCTCP)";
    params = [ ("flow_counts", ints Registry.oscillation_ns) ];
    specs =
      (fun ~quick ->
        let warmup, measure = windows ~quick in
        Registry.oscillation_specs ?warmup ?measure ());
    metrics =
      [
        cycles;
        amp_mean;
        metric "period_ms" 3 (fun o ->
            Option.map
              (fun s -> s *. 1e3)
              (cycle "period_mean_s" o));
        occ_std;
        analysed "flip_rate_hz" 0 [ "marking"; "flip_rate_hz" ];
        analysed "sync_mean" 3 [ "sync"; "index_mean" ];
      ];
    gate = amp_mean;
    rel = Lt;
    dt = "dt";
    dctcp = "dctcp";
    validity = [];
  }

(* The per-cycle mean amplitude with the single largest cycle dropped.
   The analyzer sees the run from t = 0, so the warm-up fill counts as
   one full-band cycle; dropping the largest removes that one-off from
   both protocols alike. Fewer than two cycles read 0. *)
let amp_trim =
  metric "amp_trim_pkts" 1 (fun o ->
      match
        ( cycles.read o,
          amp_mean.read o,
          cycle "amp_max_pkts" o )
      with
      | Some n, Some mean, Some max ->
          Some (if n >= 2. then ((mean *. n) -. max) /. (n -. 1.) else 0.)
      | _ -> None)

let rejects_counted o =
  match recorded "buffer.pool_rejects" o with
  | Some v when v >= 0. -> None
  | Some v -> Some (Printf.sprintf "negative pool rejects %g" v)
  | None -> Some "no buffer.pool_rejects recorded"

(* The easing survives a shared Dynamic-Threshold pool (alpha = 1) from
   under 0.1 BDP to 8 BDP. *)
let buffer =
  let ll key digits f = metric key digits (longlived f) in
  let pool key = metric key 0 (recorded ("buffer." ^ key)) in
  let alpha = 1.0 in
  {
    name = "buffer";
    title = "Buffer sizing: shared Dynamic-Threshold pool (alpha = 1)";
    params =
      [
        ("pool_sizes", ints Registry.buffer_pool_sizes);
        ("alpha", Json.Float alpha);
        ("bdp_bytes", Json.Int Registry.bdp_bytes);
      ];
    specs =
      (fun ~quick ->
        let warmup, measure = windows ~quick in
        Registry.fig_buffer_specs ~alphas:[ alpha ] ?warmup ?measure ());
    metrics =
      [
        cycles;
        amp_mean;
        amp_trim;
        occ_std;
        ll "drops" 0 (fun r -> float_of_int r.Workloads.Longlived.drops);
        pool "pool_rejects";
        pool "pool_high_water";
        ll "util" 3 (fun r -> r.Workloads.Longlived.utilization);
      ];
    gate = amp_trim;
    rel = Le;
    dt = "dt-dctcp";
    dctcp = "dctcp";
    validity = [ rejects_counted ];
  }

let slowdown key f = metric ("slowdown_" ^ key) 2 (fattree f)
let p50 = slowdown "p50" (fun r -> r.Workloads.Fattree.slowdown_p50)
let p95 = slowdown "p95" (fun r -> r.Workloads.Fattree.slowdown_p95)
let p99 = slowdown "p99" (fun r -> r.Workloads.Fattree.slowdown_p99)
let p999 = slowdown "p999" (fun r -> r.Workloads.Fattree.slowdown_p999)

let routed o =
  match fattree (fun r -> r.Workloads.Fattree.no_route_drops) o with
  | Some n when n > 0 ->
      Some (Printf.sprintf "%d no-route drops (fabric miswired)" n)
  | _ -> None

let tails_scored o =
  List.find_map
    (fun m ->
      match m.read o with
      | Some v when Float.is_finite v && v >= 1. -> None
      | Some v -> Some (Printf.sprintf "%s %g is not finite and >= 1" m.key v)
      | None -> Some (m.key ^ " missing"))
    [ p50; p95; p99; p999 ]

(* The easing carried onto the k-ary fat tree: DT-DCTCP's p99 FCT
   slowdown at or below DCTCP's at k = 4 and 8. --quick caps simulated
   time at 1 s instead of 5 s, which censors RTO-bound stragglers (NewReno's
   and one DCTCP flow at k = 8) but leaves every p99 as in full mode. *)
let fattree_claim =
  let count key f = metric key 0 (fattree (fun r -> float_of_int (f r))) in
  {
    name = "fattree";
    title = "Fat-tree fabric: FCT slowdown over ECMP";
    params = [ ("ks", ints Registry.fattree_ks) ];
    specs =
      (fun ~quick ->
        if quick then
          Registry.fig_fattree_specs ~time_cap:(Time.span_of_sec 1.) ()
        else Registry.fig_fattree_specs ());
    metrics =
      [
        p50;
        p95;
        p99;
        p999;
        slowdown "mean" (fun r -> r.Workloads.Fattree.slowdown_mean);
        slowdown "max" (fun r -> r.Workloads.Fattree.slowdown_max);
        count "flows" (fun r -> r.Workloads.Fattree.flows_total);
        count "timeouts" (fun r -> r.Workloads.Fattree.timeouts);
        count "incomplete" (fun r -> r.Workloads.Fattree.incomplete);
      ];
    gate = p99;
    rel = Le;
    dt = "dt-dctcp";
    dctcp = "dctcp";
    validity = [ routed; tails_scored ];
  }

let all = [ oscillation; buffer; fattree_claim ]

(* --- the evaluator --- *)

let rel_string = function Lt -> "<" | Le -> "<="

let verdict_to_string v =
  let status =
    match v.status with
    | Holds -> "holds"
    | Fails -> "fails"
    | Invalid -> "invalid"
  in
  Printf.sprintf "%s %s: %s (%s)" v.claim v.point status v.detail

let invalid (o : Runner.outcome) t =
  let reason =
    match o.result with
    | Outcome.Failed { error; _ } -> Some error
    | Outcome.Done _ -> List.find_map (fun rule -> rule o) t.validity
  in
  Option.map (fun r -> o.spec.Spec.name ^ ": " ^ r) reason

let judge_point t point runs =
  let verdict status detail = { claim = t.name; point; status; detail } in
  match List.find_map (fun (_, o) -> invalid o t) runs with
  | Some reason -> verdict Invalid reason
  | None -> (
      let value proto =
        let key = Printf.sprintf "%s.%s.%s" t.gate.key proto point in
        match
          List.find_map
            (fun (p, o) -> if String.equal p proto then t.gate.read o else None)
            runs
        with
        | None -> Error (key ^ " missing")
        | Some v when Float.is_nan v -> Error (key ^ " is NaN")
        | Some v -> Ok v
      in
      match (value t.dt, value t.dctcp) with
      | Error reason, _ | _, Error reason -> verdict Invalid reason
      | Ok d, Ok c ->
          let holds = match t.rel with Lt -> d < c | Le -> d <= c in
          verdict
            (if holds then Holds else Fails)
            (Printf.sprintf "%s: %s %.*f %s%s %s %.*f" t.gate.key t.dt
               t.gate.digits d
               (if holds then "" else "not ")
               (rel_string t.rel) t.dctcp t.gate.digits c))

let labelled outcomes =
  Array.to_list outcomes
  |> List.map (fun (o : Runner.outcome) ->
         let proto, point = label o.spec in
         (proto, point, o))

let judge t outcomes =
  let runs = labelled outcomes in
  match distinct (List.map (fun (_, point, _) -> point) runs) with
  | [] ->
      [ { claim = t.name; point = "-"; status = Invalid; detail = "no runs" } ]
  | points ->
      List.map
        (fun point ->
          judge_point t point
            (List.filter_map
               (fun (proto, p, o) ->
                 if String.equal p point then Some (proto, o) else None)
               runs))
        points

let table t runs =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf "%s: %s of %s %s %s at every point" t.name t.gate.key
           t.dt (rel_string t.rel) t.dctcp)
      ~columns:
        (Stats.Table.column ~align:Stats.Table.Left "protocol"
        :: Stats.Table.column ~align:Stats.Table.Left "point"
        :: List.map (fun m -> Stats.Table.column m.key) t.metrics)
  in
  List.iter
    (fun (proto, point, o) ->
      Stats.Table.add_row table
        (proto :: point
        :: List.map
             (fun m ->
               match m.read o with
               | Some v -> Stats.Table.fmt_f m.digits v
               | None -> "-")
             t.metrics))
    runs;
  table

let evaluate ?jobs ~quick t =
  let specs = t.specs ~quick in
  let outcomes, wall_s =
    Obs.Profile.time (fun () -> Runner.run ?jobs ~analyze:true specs)
  in
  let runs = labelled outcomes in
  let metrics =
    List.concat_map
      (fun (proto, point, o) ->
        List.filter_map
          (fun m ->
            Option.map
              (fun v -> (Printf.sprintf "%s.%s.%s" m.key proto point, v))
              (m.read o))
          t.metrics)
      runs
  in
  let protocols = distinct (List.map (fun (proto, _, _) -> proto) runs) in
  let manifest =
    Obs.Manifest.make ~name:("bench." ^ t.name)
      ~seed:(match specs with s :: _ -> Spec.seed s | [] -> 0L)
      ~params:
        ((("quick", Json.Bool quick) :: t.params)
        @ [
            ( "protocols",
              Json.List (List.map (fun p -> Json.String p) protocols) );
          ])
      ~wall_clock_s:wall_s
      ~events:
        (List.fold_left
           (fun n (_, _, (o : Runner.outcome)) ->
             n + o.manifest.Obs.Manifest.events)
           0 runs)
      ~metrics ()
  in
  { table = table t runs; verdicts = judge t outcomes; manifest }
