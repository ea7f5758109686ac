module Json = Obs.Json
module L = Workloads.Longlived
module I = Workloads.Incast
module Cp = Workloads.Completion
module Dy = Workloads.Dynamic
module Cv = Workloads.Convergence
module De = Workloads.Deadline
module Ft = Workloads.Fattree

type protocol =
  | Dctcp of { g : float; k_bytes : int }
  | Dt_dctcp of { g : float; k1_bytes : int; k2_bytes : int }
  | Reno
  | Ecn_reno of { k_bytes : int }
  | Newreno
  | Dctcp_scaled of { g : float; k_frac : float }
  | Dt_dctcp_scaled of { g : float; k1_frac : float; k2_frac : float }

type workload =
  | Longlived of L.config
  | Incast of { config : I.config; sack : bool }
  | Completion of Cp.config
  | Dynamic of Dy.config
  | Convergence of Cv.config
  | Deadline of { config : De.config; d2tcp : bool }
  | Fattree of Ft.config

type t = {
  name : string;
  protocol : protocol;
  workload : workload;
  faults : Fault.Plan.t option;
  buffer : Net.Buffer_mgr.config;
}

let protocol_name = function
  | Dctcp _ -> "dctcp"
  | Dt_dctcp _ -> "dt-dctcp"
  | Reno -> "reno"
  | Ecn_reno _ -> "ecn-reno"
  | Newreno -> "newreno"
  | Dctcp_scaled _ -> "dctcp-scaled"
  | Dt_dctcp_scaled _ -> "dt-dctcp-scaled"

let workload_name = function
  | Longlived _ -> "longlived"
  | Incast _ -> "incast"
  | Completion _ -> "completion"
  | Dynamic _ -> "dynamic"
  | Convergence _ -> "convergence"
  | Deadline _ -> "deadline"
  | Fattree _ -> "fattree"

let protocol_of = function
  | Dctcp { g; k_bytes } -> Dctcp.Protocol.dctcp ~g ~k_bytes ()
  | Dt_dctcp { g; k1_bytes; k2_bytes } ->
      Dctcp.Protocol.dt_dctcp ~g ~k1_bytes ~k2_bytes ()
  | Reno -> Dctcp.Protocol.reno ()
  | Ecn_reno { k_bytes } -> Dctcp.Protocol.ecn_reno ~k_bytes
  | Newreno -> Dctcp.Protocol.newreno ()
  | Dctcp_scaled { g; k_frac } -> Dctcp.Protocol.dctcp_scaled ~g ~k_frac ()
  | Dt_dctcp_scaled { g; k1_frac; k2_frac } ->
      Dctcp.Protocol.dt_dctcp_scaled ~g ~k1_frac ~k2_frac ()

let seed t =
  match t.workload with
  | Longlived c -> c.L.seed
  | Incast { config; _ } -> config.I.seed
  | Completion c -> c.Cp.seed
  | Dynamic c -> c.Dy.seed
  | Convergence c -> c.Cv.seed
  | Deadline { config; _ } -> config.De.seed
  | Fattree c -> c.Ft.seed

let with_seed seed t =
  let workload =
    match t.workload with
    | Longlived c -> Longlived { c with L.seed }
    | Incast { config; sack } -> Incast { config = { config with I.seed }; sack }
    | Completion c -> Completion { c with Cp.seed }
    | Dynamic c -> Dynamic { c with Dy.seed }
    | Convergence c -> Convergence { c with Cv.seed }
    | Deadline { config; d2tcp } ->
        Deadline { config = { config with De.seed }; d2tcp }
    | Fattree c -> Fattree { c with Ft.seed }
  in
  { t with workload }

(* --- JSON codec ---

   Each workload config is described once, as a table of fields: the
   JSON key, a codec for its type, a getter and a functional setter.
   [workload_to_json] maps a table in order; [workload_of_json] folds it
   over the workload's [default_config], and every key is required.

   Spans are serialized as integer nanoseconds ([Engine.Time.span] is an
   [int64], always in-range for OCaml's 63-bit [int] at simulated
   timescales); seeds follow the Manifest convention of a decimal string
   so full-width int64 values survive readers without exact 64-bit
   integers. *)

let ( let* ) = Result.bind
let prefix = "Spec.of_json"

type 'a codec = {
  enc : 'a -> Json.t;
  dec : string -> Json.t -> ('a, string) result;
      (* [dec key obj] reads member [key] of [obj]. *)
}

let int = { enc = (fun i -> Json.Int i); dec = Json.int prefix }
let number = { enc = (fun f -> Json.Float f); dec = Json.number prefix }
let bool = { enc = (fun b -> Json.Bool b); dec = Json.bool prefix }

let span =
  {
    enc = (fun s -> Json.Int (Int64.to_int s));
    dec = (fun k j -> Result.map Int64.of_int (Json.int prefix k j));
  }

let span_opt =
  {
    enc = (function None -> Json.Null | Some s -> span.enc s);
    dec =
      (fun k j ->
        let* v = Json.field prefix k j in
        match v with
        | Json.Null -> Ok None
        | Json.Int i -> Ok (Some (Int64.of_int i))
        | _ -> Json.mistyped prefix k "int or null");
  }

let decimal =
  {
    enc = (fun s -> Json.String (Int64.to_string s));
    dec =
      (fun k j ->
        let* v = Json.field prefix k j in
        match v with
        | Json.String s -> (
            match Int64.of_string_opt s with
            | Some i -> Ok i
            | None -> Json.mistyped prefix k "decimal int64 string")
        | Json.Int i -> Ok (Int64.of_int i)
        | _ -> Json.mistyped prefix k "seed");
  }

type 'c field = {
  key : string;
  encode : 'c -> Json.t;
  decode : Json.t -> 'c -> ('c, string) result;
}

let field key codec get set =
  {
    key;
    encode = (fun c -> codec.enc (get c));
    decode =
      (fun j c ->
        let* v = codec.dec key j in
        Ok (set c v));
  }

(* A config's table seen through the [(flag, config)] pair of the
   variants that carry a flag next to their config. *)
let flagged flag_key fields =
  field flag_key bool fst (fun (_, c) b -> (b, c))
  :: List.map
       (fun f ->
         {
           f with
           encode = (fun (_, c) -> f.encode c);
           decode =
             (fun j (b, c) ->
               let* c = f.decode j c in
               Ok (b, c));
         })
       fields

let to_fields fields c = List.map (fun f -> (f.key, f.encode c)) fields

let of_fields fields default j =
  List.fold_left
    (fun acc f ->
      let* c = acc in
      f.decode j c)
    (Ok default) fields

let longlived_fields =
  let open L in
  [
    field "n_flows" int (fun c -> c.n_flows)
      (fun c v -> { c with n_flows = v });
    field "bottleneck_rate_bps" number (fun c -> c.bottleneck_rate_bps)
      (fun c v -> { c with bottleneck_rate_bps = v });
    field "rtt" span (fun c -> c.rtt) (fun c v -> { c with rtt = v });
    field "buffer_bytes" int (fun c -> c.buffer_bytes)
      (fun c v -> { c with buffer_bytes = v });
    field "segment_bytes" int (fun c -> c.segment_bytes)
      (fun c v -> { c with segment_bytes = v });
    field "warmup" span (fun c -> c.warmup) (fun c v -> { c with warmup = v });
    field "measure" span (fun c -> c.measure)
      (fun c v -> { c with measure = v });
    field "trace_sampling" span_opt (fun c -> c.trace_sampling)
      (fun c v -> { c with trace_sampling = v });
    field "alpha_sample_period" span (fun c -> c.alpha_sample_period)
      (fun c v -> { c with alpha_sample_period = v });
    field "stagger" span (fun c -> c.stagger)
      (fun c v -> { c with stagger = v });
    field "min_rto" span (fun c -> c.min_rto)
      (fun c v -> { c with min_rto = v });
    field "seed" decimal (fun c -> c.seed) (fun c v -> { c with seed = v });
  ]

let incast_fields =
  let open I in
  flagged "sack"
    [
      field "n_flows" int (fun c -> c.n_flows)
        (fun c v -> { c with n_flows = v });
      field "bytes_per_flow" int (fun c -> c.bytes_per_flow)
        (fun c v -> { c with bytes_per_flow = v });
      field "repeats" int (fun c -> c.repeats)
        (fun c v -> { c with repeats = v });
      field "rate_bps" number (fun c -> c.rate_bps)
        (fun c v -> { c with rate_bps = v });
      field "buffer_bytes" int (fun c -> c.buffer_bytes)
        (fun c v -> { c with buffer_bytes = v });
      field "leaf_buffer_bytes" int (fun c -> c.leaf_buffer_bytes)
        (fun c v -> { c with leaf_buffer_bytes = v });
      field "segment_bytes" int (fun c -> c.segment_bytes)
        (fun c v -> { c with segment_bytes = v });
      field "min_rto" span (fun c -> c.min_rto)
        (fun c v -> { c with min_rto = v });
      field "time_cap" span (fun c -> c.time_cap)
        (fun c v -> { c with time_cap = v });
      field "start_jitter" span (fun c -> c.start_jitter)
        (fun c v -> { c with start_jitter = v });
      field "initial_cwnd" number (fun c -> c.initial_cwnd)
        (fun c v -> { c with initial_cwnd = v });
      field "seed" decimal (fun c -> c.seed) (fun c v -> { c with seed = v });
    ]

let completion_fields =
  let open Cp in
  [
    field "n_flows" int (fun c -> c.n_flows)
      (fun c v -> { c with n_flows = v });
    field "total_bytes" int (fun c -> c.total_bytes)
      (fun c v -> { c with total_bytes = v });
    field "repeats" int (fun c -> c.repeats)
      (fun c v -> { c with repeats = v });
    field "rate_bps" number (fun c -> c.rate_bps)
      (fun c v -> { c with rate_bps = v });
    field "buffer_bytes" int (fun c -> c.buffer_bytes)
      (fun c v -> { c with buffer_bytes = v });
    field "leaf_buffer_bytes" int (fun c -> c.leaf_buffer_bytes)
      (fun c v -> { c with leaf_buffer_bytes = v });
    field "segment_bytes" int (fun c -> c.segment_bytes)
      (fun c v -> { c with segment_bytes = v });
    field "min_rto" span (fun c -> c.min_rto)
      (fun c v -> { c with min_rto = v });
    field "time_cap" span (fun c -> c.time_cap)
      (fun c v -> { c with time_cap = v });
    field "seed" decimal (fun c -> c.seed) (fun c v -> { c with seed = v });
  ]

let dynamic_fields =
  let open Dy in
  [
    field "background_flows" int (fun c -> c.background_flows)
      (fun c v -> { c with background_flows = v });
    field "short_senders" int (fun c -> c.short_senders)
      (fun c v -> { c with short_senders = v });
    field "arrival_rate" number (fun c -> c.arrival_rate)
      (fun c v -> { c with arrival_rate = v });
    field "short_flow_segments" int (fun c -> c.short_flow_segments)
      (fun c v -> { c with short_flow_segments = v });
    field "duration" span (fun c -> c.duration)
      (fun c v -> { c with duration = v });
    field "warmup" span (fun c -> c.warmup) (fun c v -> { c with warmup = v });
    field "drain" span (fun c -> c.drain) (fun c v -> { c with drain = v });
    field "bottleneck_rate_bps" number (fun c -> c.bottleneck_rate_bps)
      (fun c v -> { c with bottleneck_rate_bps = v });
    field "rtt" span (fun c -> c.rtt) (fun c v -> { c with rtt = v });
    field "buffer_bytes" int (fun c -> c.buffer_bytes)
      (fun c v -> { c with buffer_bytes = v });
    field "segment_bytes" int (fun c -> c.segment_bytes)
      (fun c v -> { c with segment_bytes = v });
    field "min_rto" span (fun c -> c.min_rto)
      (fun c v -> { c with min_rto = v });
    field "seed" decimal (fun c -> c.seed) (fun c v -> { c with seed = v });
  ]

let convergence_fields =
  let open Cv in
  [
    field "n_flows" int (fun c -> c.n_flows)
      (fun c v -> { c with n_flows = v });
    field "join_interval" span (fun c -> c.join_interval)
      (fun c v -> { c with join_interval = v });
    field "hold" span (fun c -> c.hold) (fun c v -> { c with hold = v });
    field "sample_window" span (fun c -> c.sample_window)
      (fun c v -> { c with sample_window = v });
    field "bottleneck_rate_bps" number (fun c -> c.bottleneck_rate_bps)
      (fun c v -> { c with bottleneck_rate_bps = v });
    field "rtt" span (fun c -> c.rtt) (fun c v -> { c with rtt = v });
    field "buffer_bytes" int (fun c -> c.buffer_bytes)
      (fun c v -> { c with buffer_bytes = v });
    field "segment_bytes" int (fun c -> c.segment_bytes)
      (fun c v -> { c with segment_bytes = v });
    field "min_rto" span (fun c -> c.min_rto)
      (fun c v -> { c with min_rto = v });
    field "convergence_band" number (fun c -> c.convergence_band)
      (fun c v -> { c with convergence_band = v });
    field "seed" decimal (fun c -> c.seed) (fun c v -> { c with seed = v });
  ]

let deadline_fields =
  let open De in
  flagged "d2tcp"
    [
      field "n_flows" int (fun c -> c.n_flows)
        (fun c v -> { c with n_flows = v });
      field "bytes_per_flow" int (fun c -> c.bytes_per_flow)
        (fun c v -> { c with bytes_per_flow = v });
      field "deadline" span (fun c -> c.deadline)
        (fun c v -> { c with deadline = v });
      field "deadline_spread" span (fun c -> c.deadline_spread)
        (fun c v -> { c with deadline_spread = v });
      field "repeats" int (fun c -> c.repeats)
        (fun c v -> { c with repeats = v });
      field "rate_bps" number (fun c -> c.rate_bps)
        (fun c v -> { c with rate_bps = v });
      field "buffer_bytes" int (fun c -> c.buffer_bytes)
        (fun c v -> { c with buffer_bytes = v });
      field "leaf_buffer_bytes" int (fun c -> c.leaf_buffer_bytes)
        (fun c v -> { c with leaf_buffer_bytes = v });
      field "segment_bytes" int (fun c -> c.segment_bytes)
        (fun c v -> { c with segment_bytes = v });
      field "min_rto" span (fun c -> c.min_rto)
        (fun c v -> { c with min_rto = v });
      field "start_jitter" span (fun c -> c.start_jitter)
        (fun c v -> { c with start_jitter = v });
      field "time_cap" span (fun c -> c.time_cap)
        (fun c v -> { c with time_cap = v });
      field "seed" decimal (fun c -> c.seed) (fun c v -> { c with seed = v });
    ]

let fattree_fields =
  let open Ft in
  [
    field "k" int (fun c -> c.k) (fun c v -> { c with k = v });
    field "incast_fanin" int (fun c -> c.incast_fanin)
      (fun c v -> { c with incast_fanin = v });
    field "incast_bytes" int (fun c -> c.incast_bytes)
      (fun c v -> { c with incast_bytes = v });
    field "long_flows" int (fun c -> c.long_flows)
      (fun c v -> { c with long_flows = v });
    field "long_bytes" int (fun c -> c.long_bytes)
      (fun c v -> { c with long_bytes = v });
    field "rate_bps" number (fun c -> c.rate_bps)
      (fun c v -> { c with rate_bps = v });
    field "link_delay" span (fun c -> c.link_delay)
      (fun c v -> { c with link_delay = v });
    field "queue_bytes" int (fun c -> c.queue_bytes)
      (fun c v -> { c with queue_bytes = v });
    field "segment_bytes" int (fun c -> c.segment_bytes)
      (fun c v -> { c with segment_bytes = v });
    field "min_rto" span (fun c -> c.min_rto)
      (fun c v -> { c with min_rto = v });
    field "time_cap" span (fun c -> c.time_cap)
      (fun c v -> { c with time_cap = v });
    field "start_spread" span (fun c -> c.start_spread)
      (fun c v -> { c with start_spread = v });
    field "initial_cwnd" number (fun c -> c.initial_cwnd)
      (fun c v -> { c with initial_cwnd = v });
    field "seed" decimal (fun c -> c.seed) (fun c v -> { c with seed = v });
  ]

let workload_to_json w =
  let fields =
    match w with
    | Longlived c -> to_fields longlived_fields c
    | Incast { config; sack } -> to_fields incast_fields (sack, config)
    | Completion c -> to_fields completion_fields c
    | Dynamic c -> to_fields dynamic_fields c
    | Convergence c -> to_fields convergence_fields c
    | Deadline { config; d2tcp } -> to_fields deadline_fields (d2tcp, config)
    | Fattree c -> to_fields fattree_fields c
  in
  Json.Obj (("kind", Json.String (workload_name w)) :: fields)

let workload_of_json j =
  let ( let+ ) r f = Result.map f r in
  let* kind = Json.string prefix "kind" j in
  match kind with
  | "longlived" ->
      let+ c = of_fields longlived_fields L.default_config j in
      Longlived c
  | "incast" ->
      let+ sack, config = of_fields incast_fields (false, I.default_config) j in
      Incast { config; sack }
  | "completion" ->
      let+ c = of_fields completion_fields Cp.default_config j in
      Completion c
  | "dynamic" ->
      let+ c = of_fields dynamic_fields Dy.default_config j in
      Dynamic c
  | "convergence" ->
      let+ c = of_fields convergence_fields Cv.default_config j in
      Convergence c
  | "deadline" ->
      let+ d2tcp, config =
        of_fields deadline_fields (false, De.default_config) j
      in
      Deadline { config; d2tcp }
  | "fattree" ->
      let+ c = of_fields fattree_fields Ft.default_config j in
      Fattree c
  | other -> Error (Printf.sprintf "%s: unknown workload %S" prefix other)

let protocol_to_json p =
  let kind = ("kind", Json.String (protocol_name p)) in
  match p with
  | Dctcp { g; k_bytes } ->
      Json.Obj [ kind; ("g", Json.Float g); ("k_bytes", Json.Int k_bytes) ]
  | Dt_dctcp { g; k1_bytes; k2_bytes } ->
      Json.Obj
        [
          kind;
          ("g", Json.Float g);
          ("k1_bytes", Json.Int k1_bytes);
          ("k2_bytes", Json.Int k2_bytes);
        ]
  | Reno -> Json.Obj [ kind ]
  | Ecn_reno { k_bytes } -> Json.Obj [ kind; ("k_bytes", Json.Int k_bytes) ]
  | Newreno -> Json.Obj [ kind ]
  | Dctcp_scaled { g; k_frac } ->
      Json.Obj [ kind; ("g", Json.Float g); ("k_frac", Json.Float k_frac) ]
  | Dt_dctcp_scaled { g; k1_frac; k2_frac } ->
      Json.Obj
        [
          kind;
          ("g", Json.Float g);
          ("k1_frac", Json.Float k1_frac);
          ("k2_frac", Json.Float k2_frac);
        ]

let protocol_of_json j =
  let int k = Json.int prefix k j and number k = Json.number prefix k j in
  let* kind = Json.string prefix "kind" j in
  match kind with
  | "dctcp" ->
      let* g = number "g" in
      let* k_bytes = int "k_bytes" in
      Ok (Dctcp { g; k_bytes })
  | "dt-dctcp" ->
      let* g = number "g" in
      let* k1_bytes = int "k1_bytes" in
      let* k2_bytes = int "k2_bytes" in
      Ok (Dt_dctcp { g; k1_bytes; k2_bytes })
  | "reno" -> Ok Reno
  | "ecn-reno" ->
      let* k_bytes = int "k_bytes" in
      Ok (Ecn_reno { k_bytes })
  | "newreno" -> Ok Newreno
  | "dctcp-scaled" ->
      let* g = number "g" in
      let* k_frac = number "k_frac" in
      Ok (Dctcp_scaled { g; k_frac })
  | "dt-dctcp-scaled" ->
      let* g = number "g" in
      let* k1_frac = number "k1_frac" in
      let* k2_frac = number "k2_frac" in
      Ok (Dt_dctcp_scaled { g; k1_frac; k2_frac })
  | other -> Error (Printf.sprintf "%s: unknown protocol %S" prefix other)

let buffer_to_json = function
  | Net.Buffer_mgr.Static -> None
  | Net.Buffer_mgr.Dynamic_threshold { pool_bytes; alpha } ->
      Some
        (Json.Obj
           [ ("pool_bytes", Json.Int pool_bytes); ("alpha", Json.Float alpha) ])

let buffer_of_json j =
  let* pool_bytes = Json.int prefix "pool_bytes" j in
  let* alpha = Json.number prefix "alpha" j in
  if pool_bytes <= 0 then
    Error "Spec.of_json: buffer pool_bytes must be positive"
  else if not (alpha >= 1. /. 1024.) then
    Error "Spec.of_json: buffer alpha must be >= 1/1024"
  else Ok (Net.Buffer_mgr.Dynamic_threshold { pool_bytes; alpha })

let to_json t =
  (* The "faults" and "buffer" keys are omitted (not null) when at their
     defaults, so a spec without faults and with Static buffering
     serializes byte-identically to one from before these features
     existed — pre-existing manifests stay bit-stable. *)
  let base =
    [
      ("name", Json.String t.name);
      ("protocol", protocol_to_json t.protocol);
      ("workload", workload_to_json t.workload);
    ]
  in
  let base =
    match t.faults with
    | None -> base
    | Some plan -> base @ [ ("faults", Fault.Plan.to_json plan) ]
  in
  match buffer_to_json t.buffer with
  | None -> Json.Obj base
  | Some bj -> Json.Obj (base @ [ ("buffer", bj) ])

let of_json j =
  let* name = Json.string prefix "name" j in
  let* pj = Json.field prefix "protocol" j in
  let* protocol = protocol_of_json pj in
  let* wj = Json.field prefix "workload" j in
  let* workload = workload_of_json wj in
  let* faults =
    match Json.member "faults" j with
    | None -> Ok None
    | Some fj ->
        let* plan = Fault.Plan.of_json fj in
        Ok (Some plan)
  in
  let* buffer =
    match Json.member "buffer" j with
    | None -> Ok Net.Buffer_mgr.Static
    | Some bj -> buffer_of_json bj
  in
  Ok { name; protocol; workload; faults; buffer }

(* --- overrides ---

   Edits happen on the canonical JSON tree, and only at paths it already
   has, so an override can reach exactly what a spec file can say and a
   misspelt key is an error rather than an ignored extra member. *)

let rec set_path j keys v =
  match (keys, j) with
  | [], _ -> Some v
  | key :: rest, Json.Obj fields -> (
      match List.assoc_opt key fields with
      | None -> None
      | Some sub ->
          Option.map
            (fun sub' ->
              Json.Obj
                (List.map
                   (fun (k, x) ->
                     if String.equal k key then (k, sub') else (k, x))
                   fields))
            (set_path sub rest v))
  | _ :: _, _ -> None

let override t sets =
  let* j =
    List.fold_left
      (fun acc (path, v) ->
        let* j = acc in
        match set_path j (String.split_on_char '.' path) v with
        | Some j' -> Ok j'
        | None -> Error (Printf.sprintf "Spec.override: no field %S" path))
      (Ok (to_json t))
      sets
  in
  of_json j

(* Structural equality via the canonical JSON form: covers every field,
   and [Json.equal] compares floats by bit pattern, so specs containing
   identical configs are equal without tripping dtlint's R2/R3. *)
let equal a b = Json.equal (to_json a) (to_json b)
