(* Tests for the experiment layer (lib/exp): spec JSON round-trips over
   randomized scenarios, registry catalogue integrity, and the sweep
   runner's parallel bit-identity, failure isolation, and manifest
   provenance. Simulation configs here are tiny (1-2 ms windows) so the
   runner properties stay fast under `dune runtest`. *)

module Spec = Exp.Spec
module Registry = Exp.Registry
module Runner = Exp.Runner
module Outcome = Exp.Outcome
module Time = Engine.Time
module Json = Obs.Json
module Gen = QCheck.Gen
module D = Workloads.Dumbbell

let qtest = QCheck_alcotest.to_alcotest

(* A spec as JSON text and back: the form spec files take on disk. *)
let spec_to_string s = Json.to_string (Spec.to_json s)
let spec_of_string s = Result.bind (Json.parse s) Spec.of_json

let is_static = function
  | Net.Buffer_mgr.Static -> true
  | Net.Buffer_mgr.Dynamic_threshold _ -> false

(* --- generators ------------------------------------------------------ *)

let protocol_gen =
  Gen.oneof
    [
      Gen.map2
        (fun g k -> Spec.Dctcp { g; k_bytes = k })
        (Gen.float_range 0.001 1.0)
        (Gen.int_range 1500 200_000);
      Gen.map3
        (fun g k1 dk -> Spec.Dt_dctcp { g; k1_bytes = k1; k2_bytes = k1 + dk })
        (Gen.float_range 0.001 1.0)
        (Gen.int_range 1500 100_000)
        (Gen.int_range 0 100_000);
      Gen.return Spec.Reno;
      Gen.map
        (fun k -> Spec.Ecn_reno { k_bytes = k })
        (Gen.int_range 1500 200_000);
      Gen.return Spec.Newreno;
      Gen.map2
        (fun g k -> Spec.Dctcp_scaled { g; k_frac = k })
        (Gen.float_range 0.001 1.0)
        (Gen.float_range 0.01 1.0);
      Gen.map3
        (fun g k1 dk ->
          Spec.Dt_dctcp_scaled
            { g; k1_frac = k1; k2_frac = Float.min 1. (k1 +. dk) })
        (Gen.float_range 0.001 1.0)
        (Gen.float_range 0.01 0.9)
        (Gen.float_range 0. 0.1);
    ]

(* Full-width seeds: the decimal-string encoding must survive values far
   outside the float-exact integer range. *)
let seed_gen =
  Gen.map2
    (fun hi lo -> Int64.(logxor (shift_left (of_int hi) 32) (of_int lo)))
    Gen.int Gen.int

let span_gen = Gen.map Time.span_of_int_ns (Gen.int_range 0 2_000_000_000)

let longlived_gen =
  Gen.map
    (fun ((n, warmup, measure), (sampled, seed)) ->
      let trace_sampling =
        if sampled then Some (Time.span_of_us 50.) else None
      in
      Spec.Dumbbell
        {
          (D.default_config
             (D.Longlived
                {
                  D.longlived with
                  n_flows = n;
                  warmup;
                  measure;
                  trace_sampling;
                }))
          with
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 128) span_gen span_gen)
       (Gen.pair Gen.bool seed_gen))

let incast_gen =
  Gen.map
    (fun ((n, bytes, repeats), (sack, start_jitter, seed)) ->
      Spec.Fanin
        {
          (Workloads.Fanin.default_config Workloads.Fanin.Incast) with
          n_flows = n;
          bytes = Workloads.Fanin.Per_flow bytes;
          repeats;
          start_jitter;
          sack;
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 64)
          (Gen.int_range 1 1_000_000)
          (Gen.int_range 1 5))
       (Gen.triple Gen.bool span_gen seed_gen))

let completion_gen =
  Gen.map
    (fun ((n, total, repeats), seed) ->
      Spec.Fanin
        {
          (Workloads.Fanin.default_config Workloads.Fanin.Completion) with
          n_flows = n;
          bytes = Workloads.Fanin.Total total;
          repeats;
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 64)
          (Gen.int_range 1 4_000_000)
          (Gen.int_range 1 5))
       seed_gen)

let dynamic_gen =
  Gen.map
    (fun ((rate, segments, duration), seed) ->
      Spec.Dumbbell
        {
          (D.default_config
             (D.Dynamic
                {
                  D.dynamic with
                  arrival_rate = rate;
                  short_flow_segments = segments;
                  duration;
                }))
          with
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.float_range 1.0 20_000.0) (Gen.int_range 1 100)
          span_gen)
       seed_gen)

let convergence_gen =
  Gen.map
    (fun ((n, join_interval, hold), (band, seed)) ->
      Spec.Dumbbell
        {
          (D.default_config
             (D.Convergence
                {
                  D.convergence with
                  n_flows = n;
                  join_interval;
                  hold;
                  convergence_band = band;
                }))
          with
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 16) span_gen span_gen)
       (Gen.pair (Gen.float_range 0.01 0.9) seed_gen))

let deadline_gen =
  Gen.map
    (fun ((n, base, spread), (aware, seed)) ->
      Spec.Fanin
        {
          (Workloads.Fanin.default_config Workloads.Fanin.Deadline) with
          n_flows = n;
          deadline = Some { base; spread; aware };
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 32) span_gen span_gen)
       (Gen.pair Gen.bool seed_gen))

let fattree_gen =
  Gen.map
    (fun ((k, fanin, long_flows), (incast_bytes, time_cap, seed)) ->
      Spec.Fattree
        {
          Workloads.Fattree.default_config with
          k = 2 * k;
          incast_fanin = fanin;
          long_flows;
          incast_bytes;
          time_cap;
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 5) (Gen.int_range 1 64)
          (Gen.int_range 0 32))
       (Gen.triple (Gen.int_range 1 4_000_000) span_gen seed_gen))

let workload_gen =
  Gen.oneof
    [
      longlived_gen;
      incast_gen;
      completion_gen;
      dynamic_gen;
      convergence_gen;
      deadline_gen;
      fattree_gen;
    ]

(* Fault plans: valid by construction (windows sorted and disjoint,
   rates in range) so the round-trip property never trips Plan.validate. *)
let faults_gen =
  let window_list_gen =
    Gen.map
      (fun bounds ->
        let sorted = List.sort_uniq Int.compare bounds in
        let rec pair = function
          | lo :: hi :: rest -> (lo, hi) :: pair rest
          | _ -> []
        in
        pair (List.map Time.span_of_int_ns sorted))
      (Gen.list_size (Gen.int_range 0 6) (Gen.int_range 0 2_000_000_000))
  in
  let suppression_gen =
    Gen.oneof
      [
        Gen.return Fault.Plan.Keep_marks;
        Gen.return Fault.Plan.Suppress_all;
        Gen.map
          (fun (at, d) ->
            Fault.Plan.Suppress_window
              {
                at;
                until = Time.span_of_int_ns (Time.span_to_int_ns at + d);
              })
          (Gen.pair span_gen (Gen.int_range 1 1_000_000_000));
        Gen.map (fun p -> Fault.Plan.Suppress_prob p) (Gen.float_range 0. 1.);
      ]
  in
  Gen.map3
    (fun flaps (loss_rate, jitter_max) (rate_changes, suppression) ->
      {
        Fault.Plan.flaps =
          List.map
            (fun (down_at, up_at) -> { Fault.Plan.down_at; up_at })
            flaps;
        loss_rate;
        jitter_max;
        rate_changes =
          List.map
            (fun (at, until) -> { Fault.Plan.at; until; factor = 0.5 })
            rate_changes;
        suppression;
      })
    window_list_gen
    (Gen.pair (Gen.float_range 0. 0.99) span_gen)
    (Gen.pair window_list_gen suppression_gen)

(* Shared-pool configs: alpha restricted to exact multiples of 1/1024 so
   the round-trip property (floats compare by bit pattern) and the
   manager's x1024 quantisation agree on the value being tested. *)
let buffer_gen =
  Gen.oneof
    [
      Gen.return Net.Buffer_mgr.Static;
      Gen.map2
        (fun pool_bytes a ->
          Net.Buffer_mgr.Dynamic_threshold
            { pool_bytes; alpha = float_of_int a /. 1024. })
        (Gen.int_range 1_500 10_000_000)
        (Gen.int_range 1 8192);
    ]

let spec_gen =
  Gen.map3
    (fun name protocol (workload, (faults, buffer)) ->
      { Spec.name; protocol; workload; faults; buffer })
    (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 16))
    protocol_gen
    (Gen.pair workload_gen (Gen.pair (Gen.opt faults_gen) buffer_gen))

let spec_arb = QCheck.make ~print:spec_to_string spec_gen

(* --- spec serialization ---------------------------------------------- *)

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"spec JSON round-trip (of_string/to_string)"
    spec_arb
    (fun s ->
      match spec_of_string (spec_to_string s) with
      | Ok s' ->
          Spec.equal s s' && Json.equal (Spec.to_json s) (Spec.to_json s')
      | Error e -> QCheck.Test.fail_reportf "of_string: %s" e)

(* --- overrides ----------------------------------------------------- *)

let rec leaf_paths prefix = function
  | Json.Obj fields ->
      List.concat_map
        (fun (k, v) ->
          leaf_paths (if prefix = "" then k else prefix ^ "." ^ k) v)
        fields
  | v -> [ (prefix, v) ]

let prop_override_identity =
  QCheck.Test.make ~count:200
    ~name:"override of any leaf with its own value is the identity" spec_arb
    (fun s ->
      List.for_all
        (fun (path, v) ->
          match Spec.override s [ (path, v) ] with
          | Ok s' -> Spec.equal s s'
          | Error e -> QCheck.Test.fail_reportf "%s: %s" path e)
        (leaf_paths "" (Spec.to_json s)))

let smoke_longlived ~name ~seed =
  {
    Spec.name;
    protocol = Registry.sim_dt;
    workload =
      Spec.Dumbbell
        {
          (D.default_config
             (D.Longlived
                {
                  D.longlived with
                  n_flows = 2;
                  warmup = Time.span_of_ms 1.;
                  measure = Time.span_of_ms 2.;
                }))
          with
          seed;
        };
    faults = None;
    buffer = Net.Buffer_mgr.Static;
  }

let smoke_incast ~name ~seed =
  {
    Spec.name;
    protocol = Spec.Dctcp { g = 1. /. 16.; k_bytes = 32 * 1024 };
    workload =
      Spec.Fanin
        {
          (Workloads.Fanin.default_config Workloads.Fanin.Incast) with
          n_flows = 4;
          repeats = 1;
          time_cap = Time.span_of_sec 2.;
          seed;
        };
    faults = None;
    buffer = Net.Buffer_mgr.Static;
  }

let test_extreme_seeds () =
  let base = smoke_longlived ~name:"seed/extreme" ~seed:0L in
  List.iter
    (fun seed ->
      let s = Spec.with_seed seed base in
      Alcotest.(check int64) "with_seed applies" seed (Spec.seed s);
      match spec_of_string (spec_to_string s) with
      | Ok s' -> Alcotest.(check int64) "seed survives JSON" seed (Spec.seed s')
      | Error e -> Alcotest.fail e)
    [ Int64.min_int; Int64.max_int; -1L; 0L; 4_611_686_018_427_387_904L ]

let test_of_json_strict () =
  (match spec_of_string "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty object accepted");
  (match spec_of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* A field-complete spec with one config field removed must be rejected:
     of_json is strict so old manifests fail loudly, never fill defaults. *)
  let full = spec_to_string (smoke_longlived ~name:"strict" ~seed:3L) in
  match Json.parse full with
  | Error e -> Alcotest.fail e
  | Ok json ->
      let rec drop_seed = function
        | Json.Obj fields ->
            Json.Obj
              (List.filter_map
                 (fun (k, v) ->
                   if String.equal k "seed" then None
                   else Some (k, drop_seed v))
                 fields)
        | j -> j
      in
      (match Spec.of_json (drop_seed json) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "spec without seed field accepted")

(* A Static buffer must be invisible in the serialized spec — that is
   what keeps every pre-buffer-manager manifest parseable and every
   baseline family's spec JSON byte-identical to what it was before the
   shared pool existed. *)
let test_buffer_json_default () =
  let s = smoke_longlived ~name:"buffer/static" ~seed:1L in
  (match Spec.to_json s with
  | Json.Obj fields ->
      Alcotest.(check bool) "buffer key omitted when Static" false
        (List.mem_assoc "buffer" fields)
  | _ -> Alcotest.fail "spec json is not an object");
  (match spec_of_string (spec_to_string s) with
  | Ok s' ->
      Alcotest.(check bool) "absent buffer parses as Static" true
        (is_static s'.Spec.buffer)
  | Error e -> Alcotest.fail e);
  let dt =
    {
      s with
      Spec.buffer =
        Net.Buffer_mgr.Dynamic_threshold { pool_bytes = 125_000; alpha = 0.5 };
    }
  in
  (match Spec.to_json dt with
  | Json.Obj fields ->
      Alcotest.(check bool) "buffer key present for a shared pool" true
        (List.mem_assoc "buffer" fields)
  | _ -> Alcotest.fail "spec json is not an object");
  match spec_of_string (spec_to_string dt) with
  | Ok dt' ->
      Alcotest.(check bool) "Dynamic_threshold round-trips" true
        (Spec.equal dt dt')
  | Error e -> Alcotest.fail e

let override_ok s sets =
  match Spec.override s sets with
  | Ok s' -> s'
  | Error e -> Alcotest.fail e

let check_spec msg expected got =
  Alcotest.(check string) msg (spec_to_string expected) (spec_to_string got)

let dt_json ~k1 ~k2 =
  Json.Obj
    [
      ("kind", Json.String "dt-dctcp");
      ("g", Json.Float (1. /. 16.));
      ("k1_bytes", k1);
      ("k2_bytes", k2);
    ]

let test_override_int () =
  let s = smoke_longlived ~name:"override/int" ~seed:5L in
  let cfg, l =
    match s.Spec.workload with
    | Spec.Dumbbell ({ D.schedule = D.Longlived l; _ } as c) -> (c, l)
    | _ -> Alcotest.fail "not longlived"
  in
  check_spec "n_flows replaced, nothing else"
    {
      s with
      Spec.workload =
        Spec.Dumbbell
          { cfg with D.schedule = D.Longlived { l with n_flows = 7 } };
    }
    (override_ok s [ ("workload.n_flows", Json.Int 7) ])

let test_override_protocol () =
  let s = smoke_longlived ~name:"override/proto" ~seed:5L in
  let dctcp = { s with Spec.protocol = Registry.sim_dctcp } in
  check_spec "DCTCP -> DT-DCTCP" s
    (override_ok dctcp
       [ ("protocol", dt_json ~k1:(Json.Int 45_000) ~k2:(Json.Int 75_000)) ])

(* The nulls are not a valid DT-DCTCP protocol; the later overrides fill
   them in, which only works if every override lands before the one
   parse. *)
let test_override_sequence () =
  let s = smoke_longlived ~name:"override/seq" ~seed:5L in
  let dctcp = { s with Spec.protocol = Registry.sim_dctcp } in
  check_spec "overrides compose before parsing" s
    (override_ok dctcp
       [
         ("protocol", dt_json ~k1:Json.Null ~k2:Json.Null);
         ("protocol.k1_bytes", Json.Int 45_000);
         ("protocol.k2_bytes", Json.Int 75_000);
       ])

let test_override_missing_path () =
  let s = smoke_longlived ~name:"override/missing" ~seed:5L in
  List.iter
    (fun path ->
      match Spec.override s [ (path, Json.Int 1) ] with
      | Ok _ -> Alcotest.fail ("override invented " ^ path)
      | Error e ->
          Alcotest.(check string) ("error names " ^ path)
            (Printf.sprintf "Spec.override: no field %S" path)
            e)
    [
      "workload.n_flow";
      "workload.n_flows.x";
      "protocol.k_bytes";
      "buffer";
      "";
    ]

let test_override_type_mismatch () =
  let s = smoke_longlived ~name:"override/type" ~seed:5L in
  match Spec.override s [ ("workload.n_flows", Json.String "x") ] with
  | Ok _ -> Alcotest.fail "string accepted for n_flows"
  | Error e ->
      Alcotest.(check string)
        "of_json's error" {|Spec.of_json: field "n_flows" is not a int|} e

(* A value of the same JSON type that differs from [v]; [None] for the
   "kind" tags, whose change would swap the whole variant. *)
let bumped = function
  | Json.Int i -> Some (Json.Int (i + 1))
  | Json.Float f -> Some (Json.Float (f +. 1.))
  | Json.Bool b -> Some (Json.Bool (not b))
  | Json.Null -> Some (Json.Int 1_000)
  | Json.String s -> (
      match Int64.of_string_opt s with
      | Some seed -> Some (Json.String (Int64.to_string (Int64.succ seed)))
      | None -> None)
  | Json.List _ | Json.Obj _ -> None

(* One spec per workload kind: the defaults family plus the fat-tree
   smoke point. *)
let one_spec_per_kind () =
  Option.value (Registry.select "defaults") ~default:[]
  @ [ List.hd (Option.value (Registry.select "fig_fattree_smoke") ~default:[]) ]

(* Every table entry's setter must write the field its getter reads:
   overriding one workload leaf with a new value reads that value back
   at the same path, and every other leaf is untouched. *)
let test_override_each_leaf () =
  let kinds =
    List.map
      (fun s -> Spec.workload_name s.Spec.workload)
      (one_spec_per_kind ())
  in
  Alcotest.(check (list string))
    "one spec per workload kind"
    [
      "longlived";
      "incast";
      "completion";
      "deadline";
      "dynamic";
      "convergence";
      "fattree";
    ]
    kinds;
  List.iter
    (fun s ->
      let leaves = leaf_paths "" (Spec.to_json s) in
      List.iter
        (fun (path, v) ->
          match bumped v with
          | Some v' when String.starts_with ~prefix:"workload." path ->
              let s' = override_ok s [ (path, v') ] in
              List.iter2
                (fun (p, old) (p', got) ->
                  Alcotest.(check string) "same leaf order" p p';
                  let want = if String.equal p path then v' else old in
                  if not (Json.equal want got) then
                    Alcotest.failf "%s: override of %s left %s = %s, want %s"
                      s.Spec.name path p (Json.to_string got)
                      (Json.to_string want))
                leaves
                (leaf_paths "" (Spec.to_json s'))
          | _ -> ())
        leaves)
    (one_spec_per_kind ())

(* --- registry catalogue ---------------------------------------------- *)

(* The CI smoke families, which `dtsim sweep --verify-serial` replays
   from their manifests, cover every workload kind the codec has. *)
let test_smoke_kinds () =
  Alcotest.(check (list string))
    "seven workload kinds"
    [
      "completion";
      "convergence";
      "deadline";
      "dynamic";
      "fattree";
      "incast";
      "longlived";
    ]
    (List.concat_map
       (fun family -> Option.value (Registry.select family) ~default:[])
       [ "ci_smoke"; "fig_fattree_smoke" ]
    |> List.map (fun (s : Spec.t) -> Spec.workload_name s.Spec.workload)
    |> List.sort_uniq String.compare)

let test_registry_catalogue () =
  let entries = Registry.all () in
  let names = Registry.names () in
  Alcotest.(check int) "names match entries" (List.length entries)
    (List.length names);
  Alcotest.(check int) "entry names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (e : Registry.entry) ->
      (match Registry.find e.name with
      | Some found ->
          Alcotest.(check string) "find resolves" e.name found.Registry.name
      | None -> Alcotest.fail ("find misses " ^ e.name));
      let specs = e.specs () in
      Alcotest.(check bool) (e.name ^ " non-empty") true (specs <> []);
      let snames = List.map (fun (s : Spec.t) -> s.Spec.name) specs in
      Alcotest.(check int)
        (e.name ^ " spec names unique")
        (List.length snames)
        (List.length (List.sort_uniq String.compare snames));
      List.iter
        (fun s ->
          match spec_of_string (spec_to_string s) with
          | Ok s' ->
              if not (Spec.equal s s') then
                Alcotest.fail ("round-trip changed " ^ s.Spec.name)
          | Error err -> Alcotest.fail (s.Spec.name ^ ": " ^ err))
        specs)
    entries;
  (match Registry.find "no-such-entry" with
  | None -> ()
  | Some _ -> Alcotest.fail "find invented an entry");
  (* Spec names are unique across families too, so `dtsim sweep --name`
     can address one registry point without naming its family. *)
  let all_specs =
    List.concat_map (fun (e : Registry.entry) -> e.specs ()) entries
  in
  let all_names = List.map (fun (s : Spec.t) -> s.Spec.name) all_specs in
  Alcotest.(check int) "spec names unique across families"
    (List.length all_names)
    (List.length (List.sort_uniq String.compare all_names));
  let names_of = Option.map (List.map (fun (s : Spec.t) -> s.Spec.name)) in
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check (option (list string)))
        ("select family " ^ e.name)
        (names_of (Some (e.specs ())))
        (names_of (Registry.select e.name)))
    entries;
  List.iter
    (fun (s : Spec.t) ->
      match Registry.select s.Spec.name with
      | Some [ found ] ->
          if not (Spec.equal s found) then
            Alcotest.fail ("select returned another spec for " ^ s.Spec.name)
      | _ -> Alcotest.fail ("select misses spec " ^ s.Spec.name))
    all_specs;
  Alcotest.(check bool) "select no-such" true (Registry.select "no-such" = None)

(* The defaults family is the CLI's former per-workload flag defaults as
   data: each spec must serialize exactly as the retired subcommand's
   spec did, so `dtsim sweep --name dtsim.<workload>` keeps reproducing
   the same manifests. Fat-tree, which has no default spec, is pinned
   by its smoke point, so a key dropped from or reordered in any
   workload's field table fails here. *)
let test_defaults_pinned () =
  let expected =
    [
      {|{"name":"dtsim.longlived","protocol":{"kind":"dctcp","g":0.0625,"k_bytes":60000},"workload":{"kind":"longlived","n_flows":10,"bottleneck_rate_bps":10000000000.0,"rtt":100000,"buffer_bytes":1500000,"segment_bytes":1500,"warmup":100000000,"measure":200000000,"trace_sampling":null,"alpha_sample_period":1000000,"stagger":1000000,"min_rto":10000000,"seed":"1"}}|};
      {|{"name":"dtsim.incast","protocol":{"kind":"dctcp","g":0.0625,"k_bytes":32768},"workload":{"kind":"incast","sack":false,"n_flows":32,"bytes_per_flow":65536,"repeats":20,"rate_bps":1000000000.0,"buffer_bytes":131072,"leaf_buffer_bytes":524288,"segment_bytes":1500,"min_rto":200000000,"time_cap":10000000000,"start_jitter":300000,"initial_cwnd":2.0,"seed":"1"}}|};
      {|{"name":"dtsim.completion","protocol":{"kind":"dctcp","g":0.0625,"k_bytes":32768},"workload":{"kind":"completion","n_flows":32,"total_bytes":1048576,"repeats":20,"rate_bps":1000000000.0,"buffer_bytes":131072,"leaf_buffer_bytes":524288,"segment_bytes":1500,"min_rto":200000000,"time_cap":10000000000,"seed":"1"}}|};
      {|{"name":"dtsim.deadline","protocol":{"kind":"dctcp","g":0.0625,"k_bytes":32768},"workload":{"kind":"deadline","d2tcp":false,"n_flows":16,"bytes_per_flow":65536,"deadline":20000000,"deadline_spread":20000000,"repeats":20,"rate_bps":1000000000.0,"buffer_bytes":131072,"leaf_buffer_bytes":524288,"segment_bytes":1500,"min_rto":200000000,"start_jitter":300000,"time_cap":10000000000,"seed":"1"}}|};
      {|{"name":"dtsim.dynamic","protocol":{"kind":"dctcp","g":0.0625,"k_bytes":60000},"workload":{"kind":"dynamic","background_flows":2,"short_senders":32,"arrival_rate":5000.0,"short_flow_segments":14,"duration":200000000,"warmup":50000000,"drain":100000000,"bottleneck_rate_bps":10000000000.0,"rtt":100000,"buffer_bytes":1500000,"segment_bytes":1500,"min_rto":10000000,"seed":"1"}}|};
      {|{"name":"dtsim.convergence","protocol":{"kind":"dctcp","g":0.0625,"k_bytes":60000},"workload":{"kind":"convergence","n_flows":5,"join_interval":500000000,"hold":500000000,"sample_window":10000000,"bottleneck_rate_bps":1000000000.0,"rtt":100000,"buffer_bytes":750000,"segment_bytes":1500,"min_rto":10000000,"convergence_band":0.25,"seed":"1"}}|};
      {|{"name":"fig_fattree_smoke/dctcp/k=4","protocol":{"kind":"dctcp","g":0.0625,"k_bytes":32768},"workload":{"kind":"fattree","k":4,"incast_fanin":16,"incast_bytes":16384,"long_flows":8,"long_bytes":65536,"rate_bps":1000000000.0,"link_delay":5000,"queue_bytes":131072,"segment_bytes":1500,"min_rto":10000000,"time_cap":500000000,"start_spread":1000000,"initial_cwnd":2.0,"seed":"1"}}|};
    ]
  in
  Alcotest.(check (list string))
    "one pinned spec per workload" expected
    (List.map spec_to_string (one_spec_per_kind ()))

(* BENCH_perf.json's events/s baseline was recorded on exactly these
   specs: DT-DCTCP at (K1, K2) = (45000, 75000) bytes, seed 11, 100 ms of
   warm-up and 100 ms of measurement, at N = 4, 32, 128 and 512 with a
   250-packet buffer, or 4N packets above N = 128. An edit to the family
   must fail here rather than silently move the baseline. *)
let test_perf_dumbbell_pinned () =
  let pinned n buffer_bytes =
    Printf.sprintf
      {|{"name":"perf_dumbbell/dt-dctcp/n=%d","protocol":{"kind":"dt-dctcp","g":0.0625,"k1_bytes":45000,"k2_bytes":75000},"workload":{"kind":"longlived","n_flows":%d,"bottleneck_rate_bps":10000000000.0,"rtt":100000,"buffer_bytes":%d,"segment_bytes":1500,"warmup":100000000,"measure":100000000,"trace_sampling":null,"alpha_sample_period":1000000,"stagger":1000000,"min_rto":10000000,"seed":"11"}}|}
      n n buffer_bytes
  in
  Alcotest.(check (list string))
    "the recorded scenario"
    [
      pinned 4 375_000;
      pinned 32 375_000;
      pinned 128 375_000;
      pinned 512 3_072_000;
    ]
    (List.map spec_to_string
       (Option.value (Registry.select "perf_dumbbell") ~default:[]))

(* The buffer-manager refactor must not move any pre-existing baseline:
   every registry family except the new fig_buffer sweep stays on the
   Static (private-capacity) path, and a spec read back from an old
   manifest (no buffer key) runs bit-identically to the explicit-Static
   spec. *)
let test_baseline_families_stay_static () =
  List.iter
    (fun (e : Registry.entry) ->
      if not (String.equal e.name "fig_buffer") then
        List.iter
          (fun (s : Spec.t) ->
            if
              not (is_static s.Spec.buffer)
            then Alcotest.fail (e.name ^ "/" ^ s.Spec.name ^ " is not Static"))
          (e.specs ()))
    (Registry.all ())

(* --- runner ----------------------------------------------------------- *)

(* Wall-clock fields (wall_clock_s, events_per_s) legitimately differ
   between runs; everything the simulation computed must not. *)
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

let prop_parallel_identity =
  QCheck.Test.make ~count:3 ~name:"run ~jobs:4 bit-identical to ~jobs:1"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 10_000))
    (fun base ->
      let seed i = Int64.of_int ((base * 13) + i + 1) in
      let specs =
        [
          smoke_longlived ~name:"par/ll-a" ~seed:(seed 0);
          smoke_incast ~name:"par/incast" ~seed:(seed 1);
          smoke_longlived ~name:"par/ll-b" ~seed:(seed 2);
          smoke_longlived ~name:"par/ll-c" ~seed:(seed 3);
        ]
      in
      let serial = Runner.run ~jobs:1 specs in
      let par = Runner.run ~jobs:4 specs in
      Array.length serial = Array.length par
      && Array.for_all2 outcome_bitwise_eq serial par)

let test_run_rejects_no_jobs () =
  List.iter
    (fun jobs ->
      match Runner.run ~jobs [ smoke_longlived ~name:"jobs" ~seed:1L ] with
      | _ -> Alcotest.failf "jobs = %d accepted" jobs
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

let test_failure_isolation () =
  let bad =
    {
      Spec.name = "iso/bad";
      protocol = Registry.sim_dctcp;
      workload =
        Spec.Dumbbell
          (D.default_config (D.Longlived { D.longlived with n_flows = 0 }));
      faults = None;
      buffer = Net.Buffer_mgr.Static;
    }
  in
  let good_a = smoke_longlived ~name:"iso/good-a" ~seed:11L in
  let good_b = smoke_incast ~name:"iso/good-b" ~seed:12L in
  let outcomes = Runner.run ~jobs:2 [ good_a; bad; good_b ] in
  Alcotest.(check int) "slot per spec" 3 (Array.length outcomes);
  (match outcomes.(1).Runner.result with
  | Outcome.Failed { spec; error } ->
      Alcotest.(check string) "failed slot names its spec" "iso/bad" spec;
      Alcotest.(check bool) "error is non-empty" true (String.length error > 0)
  | Outcome.Done _ -> Alcotest.fail "zero-flow spec reported Done");
  (* The failure must not perturb its neighbours: each good slot is
     bit-identical to running that spec alone. *)
  Alcotest.(check bool) "good-a unperturbed" true
    (outcome_bitwise_eq outcomes.(0) (Runner.run_one good_a));
  Alcotest.(check bool) "good-b unperturbed" true
    (outcome_bitwise_eq outcomes.(2) (Runner.run_one good_b))

(* A non-positive measurement window has no utilization or fairness to
   report: the run must fail, naming the field, rather than print nan or
   0 as a number. *)
let check_run_fails name path ~scenario ~what values =
  let base =
    match Registry.select name with
    | Some [ s ] -> s
    | _ -> Alcotest.fail ("no registry spec " ^ name)
  in
  List.iter
    (fun v ->
      let spec = override_ok base [ (path, Json.Int v) ] in
      match (Runner.run_one spec).Runner.result with
      | Outcome.Failed { error; _ } ->
          Alcotest.(check string)
            (Printf.sprintf "%s=%d" path v)
            (Printf.sprintf "Invalid_argument(\"%s.run: need %s (got %d)\")"
               scenario what v)
            error
      | Outcome.Done _ -> Alcotest.failf "%s=%d ran to Done" path v)
    values

let test_longlived_measure_positive () =
  check_run_fails "dtsim.longlived" "workload.measure" ~scenario:"Longlived"
    ~what:"measure (ns)" [ 0; -1_000_000 ]

let test_convergence_window_positive () =
  check_run_fails "dtsim.convergence" "workload.sample_window"
    ~scenario:"Convergence" ~what:"sample_window (ns)" [ 0; -1 ]

(* Fields the run divides by, or hands to a sampler, are rejected before
   anything is simulated, with the field named. *)
let test_incast_segment_bytes_positive () =
  check_run_fails "dtsim.incast" "workload.segment_bytes" ~scenario:"Incast"
    ~what:"segment_bytes" [ 0; -1500 ]

let test_deadline_segment_bytes_positive () =
  check_run_fails "dtsim.deadline" "workload.segment_bytes"
    ~scenario:"Deadline" ~what:"segment_bytes" [ 0; -1500 ]

let test_completion_segment_bytes_positive () =
  check_run_fails "dtsim.completion" "workload.segment_bytes"
    ~scenario:"Completion" ~what:"segment_bytes" [ 0; -1500 ]

(* A fan-in run that could only report a non-measurement (no time to
   run, no bytes to send, deadlines or starts before the query) is
   rejected at the scenario's one validation site, naming the field. *)
let test_fanin_inputs_rejected () =
  List.iter
    (fun (name, scenario) ->
      check_run_fails name "workload.time_cap" ~scenario ~what:"time_cap (ns)"
        [ 0; -1 ])
    [
      ("dtsim.incast", "Incast");
      ("dtsim.completion", "Completion");
      ("dtsim.deadline", "Deadline");
    ];
  check_run_fails "dtsim.incast" "workload.bytes_per_flow" ~scenario:"Incast"
    ~what:"bytes_per_flow" [ 0; -1 ];
  check_run_fails "dtsim.deadline" "workload.bytes_per_flow"
    ~scenario:"Deadline" ~what:"bytes_per_flow" [ 0; -1 ];
  check_run_fails "dtsim.completion" "workload.total_bytes"
    ~scenario:"Completion" ~what:"total_bytes" [ 0; -1 ];
  check_run_fails "dtsim.incast" "workload.start_jitter" ~scenario:"Incast"
    ~what:"non-negative start_jitter (ns)" [ -1 ];
  check_run_fails "dtsim.deadline" "workload.start_jitter"
    ~scenario:"Deadline" ~what:"non-negative start_jitter (ns)" [ -1 ];
  check_run_fails "dtsim.deadline" "workload.deadline" ~scenario:"Deadline"
    ~what:"non-negative deadline (ns)" [ -5_000_000; -1 ];
  check_run_fails "dtsim.deadline" "workload.deadline_spread"
    ~scenario:"Deadline" ~what:"non-negative deadline_spread (ns)" [ -1 ]

(* The same for the fat-tree fabric: a run with no time or no bytes, or
   with starts before the query, measures nothing and is rejected up
   front, naming the field. *)
let test_fattree_inputs_rejected () =
  let fails = check_run_fails "fig_fattree_smoke/dctcp/k=4" ~scenario:"Fattree" in
  fails "workload.time_cap" ~what:"time_cap (ns)" [ 0; -1 ];
  fails "workload.start_spread" ~what:"non-negative start_spread (ns)" [ -1 ];
  fails "workload.incast_bytes" ~what:"incast_bytes" [ 0; -1 ];
  fails "workload.long_bytes" ~what:"long_bytes" [ 0; -1 ];
  fails "workload.long_flows" ~what:"non-negative long_flows" [ -1 ]

let test_longlived_sample_periods_positive () =
  check_run_fails "dtsim.longlived" "workload.alpha_sample_period"
    ~scenario:"Longlived" ~what:"alpha_sample_period (ns)" [ 0; -1 ];
  check_run_fails "dtsim.longlived" "workload.trace_sampling"
    ~scenario:"Longlived" ~what:"trace_sampling (ns)" [ 0; -1 ]

(* Every workload kind records its engine counters: the manifest's
   event count is the [engine.events_processed] probe, and (all but the
   fat tree, whose manifests the benchmark's digests pin) a live set
   was seen. A fan-in run sums its repeats' events (each repeat is its
   own simulation) and keeps the largest repeat's high water. *)
let test_every_kind_counts_engine_events () =
  let select name =
    match Registry.select name with
    | Some [ s ] -> s
    | _ -> Alcotest.fail ("no registry spec " ^ name)
  in
  let manifest spec = (Runner.run_one spec).Runner.manifest in
  let metric (m : Obs.Manifest.t) k =
    match List.assoc_opt k m.Obs.Manifest.metrics with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "%s: no %s" m.Obs.Manifest.name k
  in
  let counts_events name =
    let m = manifest (select name) in
    Alcotest.(check bool) (name ^ " counts events") true (m.Obs.Manifest.events > 0);
    Alcotest.(check int) (name ^ " events = probe") m.Obs.Manifest.events
      (metric m "engine.events_processed");
    m
  in
  List.iter
    (fun name ->
      let m = counts_events name in
      Alcotest.(check bool) (name ^ " high water seen") true
        (metric m "engine.heap_high_water" > 0))
    [
      "ci_smoke/longlived/dctcp"; "ci_smoke/incast/dt-dctcp";
      "ci_smoke/completion/dctcp"; "ci_smoke/deadline/d2tcp";
      "ci_smoke/dynamic/dctcp"; "ci_smoke/convergence/dt-dctcp";
    ];
  (* The fabric's manifests keep their metric set: no high water. *)
  let ft = counts_events "fig_fattree_smoke/dctcp/k=4" in
  Alcotest.(check bool) "fat tree records no high water" false
    (List.mem_assoc "engine.heap_high_water" ft.Obs.Manifest.metrics);
  let base = select "ci_smoke/incast/dt-dctcp" in
  let seed = Spec.seed base in
  let one s =
    manifest
      (override_ok base
         [
           ("workload.repeats", Json.Int 1);
           ("workload.seed", Json.String (Int64.to_string s));
         ])
  in
  (* Incast repeat r runs with seed [base + r * 7919]. *)
  let r0 = one seed and r1 = one (Int64.add seed 7919L) in
  let both =
    manifest
      (override_ok base
         [
           ("workload.repeats", Json.Int 2);
           ("workload.seed", Json.String (Int64.to_string seed));
         ])
  in
  Alcotest.(check int) "repeats' events add up"
    (r0.Obs.Manifest.events + r1.Obs.Manifest.events)
    both.Obs.Manifest.events;
  Alcotest.(check int) "high water is the larger repeat's"
    (Int.max (metric r0 "engine.heap_high_water") (metric r1 "engine.heap_high_water"))
    (metric both "engine.heap_high_water")

(* The exact result JSON of the fan-in scenarios (Incast, Completion,
   Deadline) on their CI points, one faulted point, and one Completion
   point whose six timeouts per run exercise the RTO path. Any change in
   seed strides, per-flow RNG order or summation order moves a digit. *)
let test_fanin_results_pinned () =
  let run name sets =
    let base =
      match Registry.select name with
      | Some [ s ] -> s
      | _ -> Alcotest.fail ("no registry spec " ^ name)
    in
    let spec = override_ok base sets in
    Json.to_string (Outcome.to_json (Runner.run_one spec).Runner.result)
  in
  List.iter
    (fun (name, sets, expected) ->
      Alcotest.(check string) name expected (run name sets))
    [
      ( "ci_smoke/incast/dt-dctcp",
        [],
        {|{"status":"done","kind":"incast","result":{"mean_goodput_bps":914979503.43695831,"min_goodput_bps":909269738.49225211,"max_goodput_bps":920689268.38166451,"mean_completion":0.00458422,"p99_completion":0.00461225486,"timeouts_per_run":0.0,"incomplete":0}}|} );
      ( "ci_smoke/completion/dctcp",
        [],
        {|{"status":"done","kind":"completion","result":{"mean_completion_s":0.0088666735,"min_completion_s":0.008831814,"max_completion_s":0.008901533,"p99_completion_s":0.00890083581,"stddev_completion_s":3.4859499999999669e-05,"timeouts_per_run":0.0,"incomplete":0}}|} );
      ( "ci_smoke/deadline/d2tcp",
        [],
        {|{"status":"done","kind":"deadline","result":{"met_fraction":0.91666666666666663,"mean_completion_s":0.0020350830833333329,"p99_completion_s":0.00273106435,"timeouts_per_run":0.0,"incomplete":0}}|} );
      ( "robust_smoke/incast/jitter",
        [],
        {|{"status":"done","kind":"incast","result":{"mean_goodput_bps":913759704.01450944,"min_goodput_bps":898663629.3437618,"max_goodput_bps":928855778.6852572,"mean_completion":0.004591414,"p99_completion":0.0046657509199999996,"timeouts_per_run":0.0,"incomplete":0}}|} );
      ( "ci_smoke/completion/dctcp",
        [ ("workload.n_flows", Json.Int 44); ("workload.repeats", Json.Int 2) ],
        {|{"status":"done","kind":"completion","result":{"mean_completion_s":0.20284140950000001,"min_completion_s":0.202779171,"max_completion_s":0.202903648,"p99_completion_s":0.20290240323,"stddev_completion_s":6.2238499999985042e-05,"timeouts_per_run":6.0,"incomplete":0}}|} );
    ]

(* The dumbbell's three flow schedules: MD5s of the canonical result
   JSON, recorded before the schedules shared one set-up. *)
let test_dumbbell_results_pinned () =
  let digest name sets =
    let spec =
      match Registry.select name with
      | Some [ s ] -> override_ok s sets
      | _ -> Alcotest.fail ("no registry spec " ^ name)
    in
    Digest.to_hex
      (Digest.string
         (Json.to_string (Outcome.to_json (Runner.run_one spec).Runner.result)))
  in
  List.iter
    (fun (name, sets, expected) ->
      Alcotest.(check string) name expected (digest name sets))
    [
      ("ci_smoke/dynamic/dctcp", [], "70a01d9c07b229c294aff88c0d7f1590");
      ("ci_smoke/convergence/dt-dctcp", [], "3fe71af0b48e680f8159302fad5267eb");
      ( "dtsim.longlived",
        [
          ("workload.warmup", Json.Int 5_000_000);
          ("workload.measure", Json.Int 10_000_000);
        ],
        "947cb3aef8005d4da9568bae62cf54ed" );
    ]

let test_static_run_matches_prebuffer_spec () =
  (* A spec deserialized from its pre-buffer-manager JSON form (no
     buffer key) must run bit-identically to the explicit-Static one:
     the refactor's "old behavior preserved" claim, end to end. *)
  let s = smoke_longlived ~name:"regress/static" ~seed:23L in
  let from_old_json =
    match spec_of_string (spec_to_string s) with
    | Ok s' -> s'
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "outcomes bit-identical" true
    (outcome_bitwise_eq (Runner.run_one s) (Runner.run_one from_old_json))

let test_manifest_reconstruction () =
  let spec = smoke_longlived ~name:"manifest/reconstruct" ~seed:42L in
  let o = Runner.run_one spec in
  (match o.Runner.result with
  | Outcome.Done _ -> ()
  | Outcome.Failed { error; _ } -> Alcotest.fail error);
  Alcotest.(check bool) "events recorded" true
    (o.Runner.manifest.Obs.Manifest.events > 0);
  Alcotest.(check int64) "manifest seed is the spec seed" 42L
    o.Runner.manifest.Obs.Manifest.seed;
  (* Reconstruct through the serialized form, exactly as a reader of the
     manifest file would. *)
  match Json.parse (Json.to_string (Obs.Manifest.to_json o.Runner.manifest)) with
  | Error e -> Alcotest.fail e
  | Ok json -> (
      match Obs.Manifest.of_json json with
      | Error e -> Alcotest.fail e
      | Ok m -> (
          match List.assoc_opt "spec" m.Obs.Manifest.params with
          | None -> Alcotest.fail "manifest lacks a spec param"
          | Some spec_json -> (
              match Spec.of_json spec_json with
              | Ok s' ->
                  Alcotest.(check bool) "spec reconstructed bit-for-bit" true
                    (Spec.equal spec s')
              | Error e -> Alcotest.fail e)))

(* --- streaming analysis: online (teed into the run) and offline
   (replaying the same records through a fresh analyzer, via the JSONL
   wire format) must produce bit-identical blocks. --- *)

let test_online_offline_analysis () =
  let spec = smoke_longlived ~name:"analysis/equiv" ~seed:7L in
  let records = ref [] in
  let collector =
    Obs.Trace.create ~classes:Obs.Analyze.required_classes
      (Obs.Trace.Fn (fun r -> records := r :: !records))
  in
  let o = Runner.run_one ~tracer:collector ~analyze:true spec in
  (match o.Runner.result with
  | Outcome.Done _ -> ()
  | Outcome.Failed { error; _ } -> Alcotest.fail error);
  let online =
    match o.Runner.manifest.Obs.Manifest.analysis with
    | Some j -> j
    | None -> Alcotest.fail "analyze:true produced no analysis block"
  in
  let cfg =
    match Runner.analysis_config spec with
    | Some c -> c
    | None -> Alcotest.fail "longlived spec has no analysis config"
  in
  let offline = Obs.Analyze.create cfg in
  List.iter
    (fun r ->
      (* Round-trip each record through its JSONL form, exactly as
         `dtsim analyze` reads a trace file back. *)
      match Json.parse (Json.to_string (Obs.Trace.record_to_json r)) with
      | Error e -> Alcotest.fail e
      | Ok j -> (
          match Obs.Trace.record_of_json j with
          | Error e -> Alcotest.fail e
          | Ok r' -> Obs.Analyze.feed offline r'))
    (List.rev !records);
  Obs.Analyze.finalize offline;
  Alcotest.(check bool) "records were collected" true (!records <> []);
  Alcotest.(check bool) "online and offline blocks bit-identical" true
    (Json.equal online (Obs.Analyze.to_json offline))

let test_manifest_no_analysis () =
  let spec = smoke_longlived ~name:"analysis/off" ~seed:9L in
  let o = Runner.run_one spec in
  (match o.Runner.result with
  | Outcome.Done _ -> ()
  | Outcome.Failed { error; _ } -> Alcotest.fail error);
  Alcotest.(check bool) "analysis field is None" true
    (o.Runner.manifest.Obs.Manifest.analysis = None);
  (* The serialized manifest must not even carry the key, so registry
     outputs stay byte-identical to pre-analysis builds. *)
  Alcotest.(check bool) "no analysis member in JSON" true
    (Json.member "analysis" (Obs.Manifest.to_json o.Runner.manifest) = None)

(* --- claims ------------------------------------------------------------- *)

module Claim = Exp.Claim

(* A declaration's spec list as the evaluator runs it, in full or quick
   mode. *)
let claim_specs (c : Claim.t) ~quick =
  let specs = c.Claim.specs () in
  if quick then List.map Claim.quick specs else specs

let claim name =
  match
    List.find_opt (fun (c : Claim.t) -> String.equal c.name name) Claim.all
  with
  | Some c -> c
  | None -> Alcotest.fail ("no claim " ^ name)

let fattree_spec proto k =
  let name = Printf.sprintf "fig_fattree/%s/k=%d" proto k in
  match Registry.select name with
  | Some [ s ] -> s
  | _ -> Alcotest.fail ("no spec " ^ name)

type tails = { p50 : float; p95 : float; p99 : float; p999 : float }

let tails p99 = { p50 = 2.; p95 = 3.; p99; p999 = 5. }

(* A fat-tree run that never ran: its result and manifest are made up,
   so each evaluator path is reached without simulating. *)
let fake ?(no_route_drops = 0) ?(failed = false) proto k t =
  let spec = fattree_spec proto k in
  let result =
    if failed then Outcome.Failed { spec = spec.Spec.name; error = "boom" }
    else
      Outcome.Done
        (Outcome.Fattree
           {
             Workloads.Fattree.slowdown_p50 = t.p50;
             slowdown_p95 = t.p95;
             slowdown_p99 = t.p99;
             slowdown_p999 = t.p999;
             slowdown_mean = 2.;
             slowdown_max = 6.;
             flows_total = 10;
             timeouts = 0;
             incomplete = 0;
             no_route_drops;
           })
  in
  {
    Runner.spec;
    result;
    manifest =
      Obs.Manifest.make ~name:spec.Spec.name ~seed:1L ~params:[]
        ~wall_clock_s:0. ~events:0 ~metrics:[] ();
  }

let status_to_string = function
  | Claim.Holds -> "holds"
  | Claim.Fails -> "fails"
  | Claim.Invalid -> "invalid"

(* [expect] is one (point, status) per verdict; every verdict must name
   its claim and point, in its record and in its printed line. *)
let check_verdicts msg (c : Claim.t) outcomes expect =
  let vs = Claim.judge c (Array.of_list outcomes) in
  Alcotest.(check (list (pair string string)))
    msg expect
    (List.map
       (fun (v : Claim.verdict) ->
         (v.Claim.point, status_to_string v.Claim.status))
       vs);
  List.iter
    (fun (v : Claim.verdict) ->
      Alcotest.(check string)
        (msg ^ ": claim named") c.Claim.name v.Claim.claim;
      let line = Claim.verdict_to_string v in
      let prefix = c.Claim.name ^ " " ^ v.Claim.point ^ ": " in
      Alcotest.(check bool)
        (msg ^ ": line names claim and point: " ^ line)
        true
        (String.length line > String.length prefix
        && String.equal prefix (String.sub line 0 (String.length prefix))))
    vs;
  vs

let detail_has msg sub (v : Claim.verdict) =
  let d = v.Claim.detail in
  let n = String.length sub in
  let rec at i =
    i + n <= String.length d
    && (String.equal (String.sub d i n) sub || at (i + 1))
  in
  Alcotest.(check bool) (msg ^ ": " ^ d ^ " mentions " ^ sub) true (at 0)

let test_claim_holds () =
  let c = claim "fattree" in
  (* Points are read off the specs, so run order does not matter. *)
  ignore
    (check_verdicts "holds" c
       [
         fake "dt-dctcp" 8 (tails 30.);
         fake "dctcp" 4 (tails 20.);
         fake "newreno" 4 (tails 900.);
         fake "dctcp" 8 (tails 31.);
         fake "dt-dctcp" 4 (tails 20.);
       ]
       [ ("k8", "holds"); ("k4", "holds") ])

let test_claim_fails () =
  let c = claim "fattree" in
  ignore
    (check_verdicts "Le excess" c
       [ fake "dctcp" 4 (tails 20.); fake "dt-dctcp" 4 (tails 20.5) ]
       [ ("k4", "fails") ]);
  ignore
    (check_verdicts "Lt tie"
       {
         c with
         Claim.gate =
           Option.map
             (fun (g : Claim.gate) -> { g with Claim.rel = Claim.Lt })
             c.Claim.gate;
       }
       [ fake "dctcp" 4 (tails 20.); fake "dt-dctcp" 4 (tails 20.) ]
       [ ("k4", "fails") ]);
  ignore
    (check_verdicts "Le tie" c
       [ fake "dctcp" 4 (tails 20.); fake "dt-dctcp" 4 (tails 20.) ]
       [ ("k4", "holds") ])

let test_claim_invalid () =
  let c = claim "fattree" in
  let bare = { c with Claim.validity = [] } in
  let one msg claim outcomes reason =
    match check_verdicts msg claim outcomes [ ("k4", "invalid") ] with
    | [ v ] -> detail_has msg reason v
    | _ -> Alcotest.fail (msg ^ ": one verdict expected")
  in
  one "missing metric" c [ fake "dt-dctcp" 4 (tails 20.) ]
    "slowdown_p99.dctcp.k4 missing";
  one "NaN" bare
    [ fake "dctcp" 4 (tails 20.); fake "dt-dctcp" 4 (tails Float.nan) ]
    "slowdown_p99.dt-dctcp.k4 is NaN";
  one "no-route drops" c
    [
      fake "dctcp" 4 (tails 20.);
      fake "dt-dctcp" 4 (tails 10.);
      fake ~no_route_drops:3 "newreno" 4 (tails 900.);
    ]
    "fig_fattree/newreno/k=4: 3 no-route drops";
  one "failed run" c
    [ fake ~failed:true "dctcp" 4 (tails 20.); fake "dt-dctcp" 4 (tails 10.) ]
    "fig_fattree/dctcp/k=4: boom";
  ignore (check_verdicts "no runs" c [] [ ("-", "invalid") ])

(* The fat-tree tail check the claim replaces: every protocol's four
   slowdown percentiles must be finite and at least 1. *)
let test_fattree_tails_validity () =
  let c = claim "fattree" in
  let good = tails 20. in
  List.iter
    (fun proto ->
      List.iter
        (fun (pct, bad) ->
          List.iter
            (fun v ->
              let runs =
                List.map
                  (fun p ->
                    fake p 8 (if String.equal p proto then bad v else good))
                  [ "dctcp"; "dt-dctcp"; "newreno" ]
              in
              ignore
                (check_verdicts
                   (Printf.sprintf "%s %s = %g" proto pct v)
                   c runs
                   [ ("k8", "invalid") ]))
            [ 0.5; Float.nan; Float.infinity ])
        [
          ("p50", fun v -> { good with p50 = v });
          ("p95", fun v -> { good with p95 = v });
          ("p99", fun v -> { good with p99 = v });
          ("p999", fun v -> { good with p999 = v });
        ])
    [ "dctcp"; "dt-dctcp"; "newreno" ]

let proto_of (s : Spec.t) =
  match String.split_on_char '/' s.Spec.name with
  | _ :: p :: _ -> p
  | _ -> Alcotest.fail ("unslugged spec " ^ s.Spec.name)

let uniq xs = List.sort_uniq Int.compare xs

(* The sweeps the claims run must span what they claim to span. *)
let test_claim_sweeps () =
  List.iter
    (fun quick ->
      let mode = if quick then "quick" else "full" in
      let buffer = claim_specs (claim "buffer") ~quick in
      let pools =
        uniq
          (List.map
             (fun (s : Spec.t) ->
               match s.Spec.buffer with
               | Net.Buffer_mgr.Dynamic_threshold { pool_bytes; _ } ->
                   pool_bytes
               | Net.Buffer_mgr.Static -> Alcotest.fail "static buffer spec")
             buffer)
      in
      Alcotest.(check bool) (mode ^ ": >= 4 pool sizes") true
        (List.length pools >= 4);
      Alcotest.(check bool) (mode ^ ": smallest pool under BDP/10") true
        (List.hd pools < Registry.bdp_bytes / 10);
      Alcotest.(check bool) (mode ^ ": largest pool over one BDP") true
        (List.nth pools (List.length pools - 1) > Registry.bdp_bytes);
      let fattree = claim_specs (claim "fattree") ~quick in
      Alcotest.(check (list int)) (mode ^ ": fat-tree ks") [ 4; 8 ]
        (uniq
           (List.map
              (fun (s : Spec.t) ->
                match s.Spec.workload with
                | Spec.Fattree cfg -> cfg.Workloads.Fattree.k
                | _ -> Alcotest.fail "fat-tree claim runs a non-fabric spec")
              fattree));
      Alcotest.(check (list string)) (mode ^ ": fat-tree protocols")
        [ "dctcp"; "dt-dctcp"; "newreno" ]
        (List.sort_uniq String.compare (List.map proto_of fattree));
      let osc = claim_specs (claim "oscillation") ~quick in
      Alcotest.(check (list int)) (mode ^ ": oscillation N") [ 10; 30; 60 ]
        (uniq
           (List.map
              (fun (s : Spec.t) ->
                match s.Spec.workload with
                | Spec.Dumbbell { D.schedule = D.Longlived l; _ } ->
                    l.D.n_flows
                | _ -> Alcotest.fail "oscillation runs a non-dumbbell spec")
              osc));
      List.iter
        (fun s ->
          Alcotest.(check int64)
            (mode ^ ": oscillation seed") 42L (Spec.seed s))
        osc)
    [ false; true ];
  Alcotest.(check (list string)) "claim names"
    [
      "fig1";
      "sweep";
      "fig14";
      "fig15";
      "ablation_thresholds";
      "ablation_g";
      "ablation_policies";
      "ablation_testbed_labels";
      "fluid";
      "spectrum";
      "d2tcp";
      "sack";
      "queue_buildup";
      "convergence";
      "robustness";
      "oscillation";
      "buffer";
      "fattree";
      "perf";
    ]
    (List.map (fun (c : Claim.t) -> c.Claim.name) Claim.all)

(* A long-lived run that never ran, its values set from [x] (and its
   queue deviation overridden by [std], its queue series set to
   [series]), or a failed one. *)
let fake_ll ?std ?series ?(failed = false) (spec : Spec.t) x =
  let result =
    if failed then Outcome.Failed { spec = spec.Spec.name; error = "boom" }
    else
      Outcome.Done
        (Outcome.Dumbbell
           (D.Queue
              {
                D.mean_queue_pkts = x;
                std_queue_pkts = Option.value std ~default:(x /. 4.);
                max_queue_pkts = 2. *. x;
                mean_alpha = x /. 100.;
                throughput_bps = 1e10;
                utilization = 1. -. (x /. 1000.);
                marked_fraction = x /. 200.;
                drops = int_of_float x;
                timeouts = 3 * int_of_float x;
                fast_retransmits = 0;
                jain_fairness = 1.;
                queue_series = series;
              }))
  in
  {
    Runner.spec;
    result;
    manifest =
      Obs.Manifest.make ~name:spec.Spec.name ~seed:1L ~params:[]
        ~wall_clock_s:0. ~events:7 ~metrics:[] ();
  }

(* The verdicts, the printed table and epilogue, and the recorded
   metrics. *)
let report_view (r : Claim.report) =
  ( List.map Claim.verdict_to_string r.Claim.verdicts,
    Stats.Table.to_string r.Claim.table ^ r.Claim.declared.Claim.epilogue r,
    r.Claim.manifest.Obs.Manifest.metrics )

(* Runs are read by label, never by position: any order of the same
   outcomes gives the same verdicts, table, epilogue and recorded
   metrics. *)
let test_claim_shuffle () =
  let halves keep l =
    List.filteri (fun i _ -> keep i) l
    @ List.filteri (fun i _ -> not (keep i)) l
  in
  let check msg c outcomes =
    let view l = report_view (Claim.report c ~quick:false (Array.of_list l)) in
    let bv, bt, bm = view outcomes in
    let n = List.length outcomes in
    List.iter
      (fun perm ->
        let v, t, m = view (perm outcomes) in
        Alcotest.(check (list string)) (msg ^ ": verdicts") bv v;
        Alcotest.(check string) (msg ^ ": table and epilogue") bt t;
        Alcotest.(check (list (pair string (float 0.))))
          (msg ^ ": metrics") bm m)
      [
        List.rev;
        halves (fun i -> i mod 2 = 1);
        halves (fun i -> i >= n / 3);
      ]
  in
  check "fattree" (claim "fattree")
    (List.concat_map
       (fun k ->
         List.mapi
           (fun i p -> fake p k (tails (20. +. float_of_int (k + i))))
           [ "dctcp"; "dt-dctcp"; "newreno" ])
       [ 4; 8 ]);
  let sweep = claim "sweep" in
  let specs = claim_specs sweep ~quick:false in
  let outcomes =
    List.mapi (fun i s -> fake_ll s (30. +. float_of_int i)) specs
  in
  check "sweep" sweep outcomes;
  (* An epilogue's read by label finds its own run in any order. *)
  let r = Claim.report sweep ~quick:false (Array.of_list (List.rev outcomes)) in
  List.iteri
    (fun i s ->
      let protocol, point = Claim.label s in
      Alcotest.(check (option (float 0.)))
        ("value of " ^ s.Spec.name)
        (Some (30. +. float_of_int i))
        (Claim.value r "mean_queue" ~protocol ~point))
    specs;
  (* ... and prints what it read: each protocol's N=10 mean normalizes to
     itself, and the ratio and alpha gap at N=10 exist. *)
  let n10_row =
    String.split_on_char '\n' (sweep.Claim.epilogue r)
    |> List.map (fun l ->
           List.filter (( <> ) "") (String.split_on_char ' ' l))
    |> List.find_opt (function "10" :: _ -> true | _ -> false)
  in
  (match n10_row with
  | Some [ _; dctcp; dt; std_ratio; alpha_gap ] ->
      Alcotest.(check (pair string string))
        "sweep epilogue: N=10 normalized" ("1.00", "1.00") (dctcp, dt);
      Alcotest.(check bool)
        "sweep epilogue: N=10 ratio and gap printed" false
        (String.equal std_ratio "-" || String.equal alpha_gap "-")
  | _ -> Alcotest.fail "sweep epilogue: no N=10 row");
  Alcotest.check_raises "unknown metric"
    (Invalid_argument "Exp.Claim.value: sweep has no metric nope") (fun () ->
      ignore (Claim.value r "nope" ~protocol:"dctcp" ~point:"n10"))

(* A gate-less claim has nothing to say about valid points; a failed run
   still reads invalid, which makes the harness exit 1. *)
let test_claim_gateless_failed () =
  let c = claim "sweep" in
  let verdicts failed_at =
    (Claim.report c ~quick:true
       (Array.of_list
          (List.map
             (fun (s : Spec.t) ->
               fake_ll ~failed:(String.equal s.Spec.name failed_at) s 30.)
             (claim_specs c ~quick:true))))
      .Claim.verdicts
    |> List.map Claim.verdict_to_string
  in
  Alcotest.(check (list string)) "all valid: no verdicts" [] (verdicts "");
  Alcotest.(check (list string))
    "failed run"
    [ "sweep n15: invalid (fig_sweep/dt-dctcp/n=15: boom)" ]
    (verdicts "fig_sweep/dt-dctcp/n=15");
  ignore (check_verdicts "no runs" c [] [ ("-", "invalid") ])

(* Every declaration's runs carry distinct labels in both modes, so no
   two runs share a table row or a recorded metric. *)
let test_claim_labels () =
  List.iter
    (fun quick ->
      List.iter
        (fun (c : Claim.t) ->
          let msg what =
            Printf.sprintf "%s (quick %b): %s" c.Claim.name quick what
          in
          let labels =
            List.map
              (fun (s : Spec.t) ->
                match Claim.label s with
                | proto, point -> proto ^ "/" ^ point
                | exception Invalid_argument e -> Alcotest.fail e)
              (claim_specs c ~quick)
          in
          Alcotest.(check bool) (msg "runs") true (List.length labels > 0);
          Alcotest.(check int) (msg "labels unique") (List.length labels)
            (List.length (List.sort_uniq String.compare labels)))
        Claim.all)
    [ false; true ];
  let reno =
    {
      (List.hd (claim_specs (claim "ablation_policies") ~quick:false)) with
      Spec.name = "ablation_policies/reno";
    }
  in
  Alcotest.(check (pair string string))
    "a name with no point" ("reno", "") (Claim.label reno);
  (* One parameter drops its '='; several keep theirs, so the threshold
     ablation's points stay unambiguous. *)
  let point name =
    List.find_map
      (fun (s : Spec.t) ->
        if String.equal s.Spec.name name then Some (snd (Claim.label s))
        else None)
      (claim_specs (claim "ablation_thresholds") ~quick:false)
  in
  Alcotest.(check (option string))
    "several parameters keep their '='" (Some "k1=35,k2=45")
    (point "ablation_thresholds/dt-dctcp/k1=35,k2=45");
  Alcotest.(check (pair string string))
    "one parameter drops its '='" ("dctcp", "n10")
    (Claim.label (List.hd (claim_specs (claim "oscillation") ~quick:false)))

(* Each declaration's epilogue renders a report with no runs, and one
   with a synthetic run per point: a long-lived queue with a sampled
   series, or a convergence run's shares. A metric an epilogue reads but
   its claim does not declare raises here. *)
let test_claim_epilogues () =
  let names = List.map (fun (c : Claim.t) -> c.Claim.name) Claim.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let series =
    Array.init 400 (fun i -> (float_of_int i *. 1e-5, float_of_int (i mod 40)))
  in
  let synthetic i (s : Spec.t) =
    match s.Spec.workload with
    | Spec.Dumbbell { D.schedule = D.Convergence _; _ } ->
        {
          (fake_ll s 0.) with
          Runner.result =
            Outcome.Done
              (Outcome.Dumbbell
                 (D.Shares
                    {
                      D.shares = Array.make 4 [| 5e8; 3e8; 2e8 |];
                      window_s = 0.1;
                      convergence_times_s = [| 0.01; Float.nan; 0.03 |];
                      jain_steady = 0.99;
                      utilization_steady = 0.98;
                    }));
        }
    | _ -> fake_ll ~series s (float_of_int (i + 1))
  in
  List.iter
    (fun (c : Claim.t) ->
      let render outcomes =
        c.Claim.epilogue (Claim.report c ~quick:true (Array.of_list outcomes))
      in
      ignore (render []);
      ignore (render (List.mapi synthetic (claim_specs c ~quick:true))))
    Claim.all

(* The robustness claim covers every fault kind at both protocols, records
   its metrics for every run, and scores a non-finite value invalid. *)
let test_claim_robustness () =
  let c = claim "robustness" in
  let kinds =
    [
      ("loss", "p0.01", fun (p : Fault.Plan.t) -> p.Fault.Plan.loss_rate > 0.);
      ("flap", "flap", fun p -> List.length p.Fault.Plan.flaps > 0);
      ( "brownout",
        "brownout",
        fun p -> List.length p.Fault.Plan.rate_changes > 0 );
      ( "suppress",
        "n40",
        fun p ->
          match p.Fault.Plan.suppression with
          | Fault.Plan.Suppress_prob _ -> true
          | _ -> false );
    ]
  in
  List.iter
    (fun quick ->
      let specs = claim_specs c ~quick in
      let r =
        Claim.report c ~quick
          (Array.of_list
             (List.mapi (fun i s -> fake_ll s (float_of_int (i + 1))) specs))
      in
      let recorded key =
        List.exists
          (fun (k, _) -> String.equal k key)
          r.Claim.manifest.Obs.Manifest.metrics
      in
      List.iter
        (fun (kind, point, faulted) ->
          List.iter
            (fun proto ->
              match
                List.find_opt
                  (fun s ->
                    let p, q = Claim.label s in
                    String.equal p proto && String.equal q point)
                  specs
              with
              | None -> Alcotest.fail (kind ^ ": no " ^ proto ^ " run")
              | Some s ->
                  Alcotest.(check bool) (kind ^ " fault planned") true
                    (Option.fold ~none:false ~some:faulted s.Spec.faults);
                  List.iter
                    (fun m ->
                      let key = String.concat "." [ m; proto; point ] in
                      Alcotest.(check bool) (key ^ " recorded") true
                        (recorded key))
                    [ "mean_queue"; "std_queue"; "max_queue"; "util" ])
            [ "dctcp"; "dt-dctcp" ])
        kinds;
      Alcotest.(check (list string)) "finite: no verdicts" []
        (List.map Claim.verdict_to_string r.Claim.verdicts))
    [ false; true ];
  let nan_at = "robust_suppress/dctcp/n=70" in
  Alcotest.(check (list string))
    "NaN reads invalid"
    [
      "robustness n70: invalid (" ^ nan_at
      ^ ": std_queue nan is not finite)";
    ]
    (List.map Claim.verdict_to_string
       (Claim.judge c
          (Array.of_list
             (List.map
                (fun (s : Spec.t) ->
                  let std =
                    if String.equal s.Spec.name nan_at then Float.nan else 1.
                  in
                  fake_ll ~std s 30.)
                (claim_specs c ~quick:true)))))

let digest specs =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map spec_to_string specs)))

(* MD5s of the newline-joined spec JSON, recorded when each section
   still scaled its own specs by hand. *)
let pinned_spec_digests =
  [
    ( "fig1",
      "23e1d638aa2aba6e09f7474619aeda86",
      "dea3daf5421f46177f7579e5795206b3" );
    ( "sweep",
      "1bdaf9da48489a99eb0034115cce45d7",
      "3bfb29701555685854afff16bfbb1cb5" );
    ( "fig14",
      "4a57d0d9c5facfd9bb98b4b4428ee46b",
      "cb674ce50893cce197e4e499039ebd0f" );
    ( "fig15",
      "455e01328785678c35a5a8c5d066b948",
      "1d51b4054b0ea3d373192b27a8d35324" );
    ( "ablation_thresholds",
      "8e5b23472a95fda282e9dc29f77cc066",
      "eb15f91db53e16516effcf4a5e624d20" );
    ( "ablation_g",
      "e41cce379131828ef240b3ffc890cd8b",
      "ce937e1e4d684bf4011a352a3394f2e9" );
    ( "ablation_policies",
      "ad709cc21e7567f6d6e8409c137f0f47",
      "b1664f3f9737e57adf59de047d943770" );
    ( "ablation_testbed_labels",
      "3a1effaf1ec5cbfab2100687b040392a",
      "1ee4796e21f25aac962ecdbb765fbd25" );
    ( "fluid",
      "ee24280e23ebbcf060f0fb2e480a920c",
      "b011062d0750c0a27e1b710e607aaccd" );
    ( "spectrum",
      "ac62afade090404912536e5cb1c03680",
      "a0f08f8d60823583dd34f2f8a5dd84b9" );
    ( "d2tcp",
      "b1b9e19865e3b112f4de2c6a1aed9a49",
      "d6dd022e0413bc2d0db908085b79dd47" );
    ( "sack",
      "200bec31eaf94f8597022b361bf3b891",
      "060549c290fc9034414506359e84267d" );
    ( "queue_buildup",
      "8806a2f64a5d6bd4d578b59be2625f0b",
      "22822b243e2c711ab2df22ea80106cd1" );
    ( "convergence",
      "b83bb6bdd6db8b309e563aab56d849dd",
      "4a46edf748221cfb0376519857d884c4" );
    ( "robustness",
      "6f2a387e44a57c09557ff676f213ffab",
      "54e74bcc6e4998bbe56a2e157fa2623d" );
    ( "oscillation",
      "04963105e68f9d7a7c2725af243592d0",
      "f2d425f1461853980933ac54cfcf2781" );
    ( "buffer",
      "c2fd678a52d9f7ab9c6b9bf2eeda17e4",
      "fccc32fbeb4b6ae38c6e5e26bf476e9e" );
    ( "fattree",
      "cdd9eb4540a44fcefe341259b4bc1a2d",
      "a411bae02b5a1037fe97fd3fa3457673" );
    ( "perf",
      "567da8532cdf0929496217d80f97894b",
      "eb82e17bf5c394015b1d97f3cd617b06" );
  ]

let test_claim_spec_digests () =
  let lists =
    List.map
      (fun (c : Claim.t) ->
        (c.Claim.name, claim_specs c ~quick:false, claim_specs c ~quick:true))
      Claim.all
  in
  Alcotest.(check (list (triple string string string)))
    "full and quick digests" pinned_spec_digests
    (List.map
       (fun (name, full, quick) -> (name, digest full, digest quick))
       lists);
  (* The rule's edges. *)
  let registry name =
    match Registry.select name with
    | Some [ s ] -> s
    | _ -> Alcotest.fail ("no registry spec " ^ name)
  in
  let ms span = Time.span_to_int_ns span / 1_000_000 in
  let windows (s : Spec.t) =
    match s.Spec.workload with
    | Spec.Dumbbell { D.schedule = D.Longlived l; _ } ->
        (ms l.D.warmup, ms l.D.measure)
    | _ -> Alcotest.fail "not a long-lived spec"
  in
  let planned plan =
    { (registry "dtsim.longlived") with Spec.faults = Some plan }
  in
  let span = Time.span_of_ms in
  List.iter
    (fun (what, plan, expected) ->
      Alcotest.(check (pair int int))
        (what ^ " windows") expected
        (windows (Claim.quick (planned plan))))
    [
      ( "flap",
        {
          Fault.Plan.none with
          flaps = [ { Fault.Plan.down_at = span 150.; up_at = span 170. } ];
        },
        (100, 200) );
      ( "brownout",
        {
          Fault.Plan.none with
          rate_changes =
            [ { Fault.Plan.at = span 150.; until = span 200.; factor = 0.5 } ];
        },
        (100, 200) );
      ("loss only", { Fault.Plan.none with loss_rate = 0.01 }, (50, 100));
    ];
  let repeats (s : Spec.t) =
    match s.Spec.workload with
    | Spec.Fanin c -> c.Workloads.Fanin.repeats
    | _ -> Alcotest.fail "not a fan-in spec"
  in
  let incast = registry "dtsim.incast" in
  List.iter
    (fun (n, expected) ->
      let s =
        {
          incast with
          Spec.workload =
            (match incast.Spec.workload with
            | Spec.Fanin c -> Spec.Fanin { c with Workloads.Fanin.repeats = n }
            | w -> w);
        }
      in
      Alcotest.(check int)
        (Printf.sprintf "repeats %d" n)
        expected
        (repeats (Claim.quick s)))
    [ (1, 1); (3, 1); (20, 10) ];
  let cap (s : Spec.t) =
    match s.Spec.workload with
    | Spec.Fattree c -> ms c.Workloads.Fattree.time_cap
    | _ -> Alcotest.fail "not a fat-tree spec"
  in
  let fabric = registry "fig_fattree/dctcp/k=4" in
  Alcotest.(check int) "full fat-tree cap" 5000 (cap fabric);
  Alcotest.(check int) "quick fat-tree cap" 1000 (cap (Claim.quick fabric))

let suites =
  [
    ( "exp.spec",
      [
        qtest prop_json_roundtrip;
        Alcotest.test_case "extreme seeds survive JSON" `Quick
          test_extreme_seeds;
        Alcotest.test_case "of_json is strict" `Quick test_of_json_strict;
        Alcotest.test_case "buffer key omitted when Static" `Quick
          test_buffer_json_default;
      ] );
    ( "exp.spec.override",
      [
        Alcotest.test_case "replaces an int field" `Quick test_override_int;
        Alcotest.test_case "replaces the protocol object" `Quick
          test_override_protocol;
        Alcotest.test_case "applies every override before parsing" `Quick
          test_override_sequence;
        Alcotest.test_case "missing path is an error naming it" `Quick
          test_override_missing_path;
        Alcotest.test_case "type mismatch is of_json's error" `Quick
          test_override_type_mismatch;
        Alcotest.test_case "each workload leaf lands on its own field" `Quick
          test_override_each_leaf;
        qtest prop_override_identity;
      ] );
    ( "exp.registry",
      [
        Alcotest.test_case "catalogue integrity" `Quick
          test_registry_catalogue;
        Alcotest.test_case "baseline families stay Static" `Quick
          test_baseline_families_stay_static;
        Alcotest.test_case "defaults pin the former CLI flags" `Quick
          test_defaults_pinned;
        Alcotest.test_case "perf_dumbbell pins the recorded scenario" `Quick
          test_perf_dumbbell_pinned;
        Alcotest.test_case "the smoke families cover every workload kind"
          `Quick test_smoke_kinds;
      ] );
    ( "exp.runner",
      [
        qtest prop_parallel_identity;
        Alcotest.test_case "jobs < 1 is rejected" `Quick
          test_run_rejects_no_jobs;
        Alcotest.test_case "failure isolation" `Quick test_failure_isolation;
        Alcotest.test_case "longlived rejects a non-positive measure" `Quick
          test_longlived_measure_positive;
        Alcotest.test_case "convergence rejects a non-positive sample_window"
          `Quick test_convergence_window_positive;
        Alcotest.test_case "incast rejects a non-positive segment_bytes"
          `Quick test_incast_segment_bytes_positive;
        Alcotest.test_case "deadline rejects a non-positive segment_bytes"
          `Quick test_deadline_segment_bytes_positive;
        Alcotest.test_case "completion rejects a non-positive segment_bytes"
          `Quick test_completion_segment_bytes_positive;
        Alcotest.test_case "fan-in rejects non-measurement inputs" `Quick
          test_fanin_inputs_rejected;
        Alcotest.test_case "fat-tree rejects non-measurement inputs" `Quick
          test_fattree_inputs_rejected;
        Alcotest.test_case "longlived rejects non-positive sample periods"
          `Quick test_longlived_sample_periods_positive;
        Alcotest.test_case "fan-in results pinned" `Quick
          test_fanin_results_pinned;
        Alcotest.test_case "dumbbell schedules' results pinned" `Quick
          test_dumbbell_results_pinned;
        Alcotest.test_case "every kind counts engine events" `Quick
          test_every_kind_counts_engine_events;
        Alcotest.test_case "Static run = pre-buffer spec run" `Quick
          test_static_run_matches_prebuffer_spec;
        Alcotest.test_case "manifest reconstructs the spec" `Quick
          test_manifest_reconstruction;
        Alcotest.test_case "online analysis = offline replay" `Quick
          test_online_offline_analysis;
        Alcotest.test_case "analysis absent when disabled" `Quick
          test_manifest_no_analysis;
      ] );
    ( "exp.claim",
      [
        Alcotest.test_case "holds, points read off the specs" `Quick
          test_claim_holds;
        Alcotest.test_case "fails on an Le excess and an Lt tie" `Quick
          test_claim_fails;
        Alcotest.test_case "invalid: missing, NaN, no-route, failed, empty"
          `Quick test_claim_invalid;
        Alcotest.test_case "fat-tree tails finite and >= 1" `Quick
          test_fattree_tails_validity;
        Alcotest.test_case "sweeps span the claimed range" `Quick
          test_claim_sweeps;
        Alcotest.test_case "shuffled outcomes leave the report unchanged"
          `Quick test_claim_shuffle;
        Alcotest.test_case "gate-less: a failed run reads invalid" `Quick
          test_claim_gateless_failed;
        Alcotest.test_case "every declaration's labels parse and are unique"
          `Quick test_claim_labels;
        Alcotest.test_case "robustness: every fault kind, finite values"
          `Quick test_claim_robustness;
        Alcotest.test_case "every declaration's epilogue renders" `Quick
          test_claim_epilogues;
        Alcotest.test_case "the quick rule: spec lists pinned, its edges"
          `Quick test_claim_spec_digests;
      ] );
  ]
