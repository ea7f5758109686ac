module Time = Engine.Time
module Json = Obs.Json

type flap = { down_at : Time.span; up_at : Time.span }
type rate_change = { at : Time.span; until : Time.span; factor : float }

type suppression =
  | Keep_marks
  | Suppress_all
  | Suppress_window of { at : Time.span; until : Time.span }
  | Suppress_prob of float

type t = {
  flaps : flap list;
  loss_rate : float;
  jitter_max : Time.span;
  rate_changes : rate_change list;
  suppression : suppression;
}

let none =
  {
    flaps = [];
    loss_rate = 0.;
    jitter_max = 0L;
    rate_changes = [];
    suppression = Keep_marks;
  }

(* --- validation --- *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let span_nonneg what s =
  if Int64.compare s 0L < 0 then err "Fault.Plan: negative %s" what else Ok ()

let check_windows what windows =
  (* Windows must be chronological and disjoint: overlapping flaps would
     re-enable a link mid-outage, overlapping rate windows would restore
     the wrong base rate. *)
  let rec go prev_end = function
    | [] -> Ok ()
    | (lo, hi) :: rest ->
        let* () = span_nonneg what lo in
        if Int64.compare hi lo <= 0 then err "Fault.Plan: empty %s window" what
        else if Int64.compare lo prev_end < 0 then
          err "Fault.Plan: %s windows overlap or are unsorted" what
        else go hi rest
  in
  go 0L windows

let validate t =
  let* () =
    check_windows "flap" (List.map (fun f -> (f.down_at, f.up_at)) t.flaps)
  in
  let* () =
    check_windows "rate-change"
      (List.map (fun r -> (r.at, r.until)) t.rate_changes)
  in
  let* () =
    if List.exists (fun r -> r.factor <= 0.) t.rate_changes then
      err "Fault.Plan: rate-change factor must be positive"
    else Ok ()
  in
  let* () =
    if t.loss_rate < 0. || t.loss_rate >= 1. then
      err "Fault.Plan: loss_rate must be in [0, 1)"
    else Ok ()
  in
  let* () = span_nonneg "jitter_max" t.jitter_max in
  match t.suppression with
  | Keep_marks | Suppress_all -> Ok ()
  | Suppress_window { at; until } ->
      let* () = span_nonneg "suppression window start" at in
      if Int64.compare until at <= 0 then
        err "Fault.Plan: empty suppression window"
      else Ok ()
  | Suppress_prob p ->
      if p < 0. || p > 1. then
        err "Fault.Plan: suppression probability must be in [0, 1]"
      else Ok ()

(* --- JSON (same conventions as Exp.Spec: spans as integer ns, strict
   decoding that rejects missing or mistyped fields) --- *)

let span_json s = Json.Int (Int64.to_int s)

let to_json t =
  let flap f =
    Json.Obj
      [ ("down_at", span_json f.down_at); ("up_at", span_json f.up_at) ]
  in
  let rate r =
    Json.Obj
      [
        ("at", span_json r.at);
        ("until", span_json r.until);
        ("factor", Json.Float r.factor);
      ]
  in
  let suppression =
    match t.suppression with
    | Keep_marks -> Json.Obj [ ("kind", Json.String "none") ]
    | Suppress_all -> Json.Obj [ ("kind", Json.String "all") ]
    | Suppress_window { at; until } ->
        Json.Obj
          [
            ("kind", Json.String "window");
            ("at", span_json at);
            ("until", span_json until);
          ]
    | Suppress_prob p ->
        Json.Obj [ ("kind", Json.String "prob"); ("p", Json.Float p) ]
  in
  Json.Obj
    [
      ("flaps", Json.List (List.map flap t.flaps));
      ("loss_rate", Json.Float t.loss_rate);
      ("jitter_max", span_json t.jitter_max);
      ("rate_changes", Json.List (List.map rate t.rate_changes));
      ("suppression", suppression);
    ]

let prefix = "Fault.Plan.of_json"
let field = Json.field prefix
let float_field = Json.number prefix

let span_field name j =
  let* n = Json.int prefix name j in
  if n >= 0 then Ok (Int64.of_int n)
  else err "%s: %S must be a non-negative integer (ns)" prefix name

let list_field name j =
  let* v = field name j in
  match v with Json.List l -> Ok l | _ -> Json.mistyped prefix name "list"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let flap_of_json j =
  let* down_at = span_field "down_at" j in
  let* up_at = span_field "up_at" j in
  Ok { down_at; up_at }

let rate_of_json j =
  let* at = span_field "at" j in
  let* until = span_field "until" j in
  let* factor = float_field "factor" j in
  Ok { at; until; factor }

let suppression_of_json j =
  let* kind = Json.string prefix "kind" j in
  match kind with
  | "none" -> Ok Keep_marks
  | "all" -> Ok Suppress_all
  | "window" ->
      let* at = span_field "at" j in
      let* until = span_field "until" j in
      Ok (Suppress_window { at; until })
  | "prob" ->
      let* p = float_field "p" j in
      Ok (Suppress_prob p)
  | _ -> err "%s: unknown suppression kind" prefix

let of_json j =
  let* flaps_j = list_field "flaps" j in
  let* flaps = map_result flap_of_json flaps_j in
  let* loss_rate = float_field "loss_rate" j in
  let* jitter_max = span_field "jitter_max" j in
  let* rates_j = list_field "rate_changes" j in
  let* rate_changes = map_result rate_of_json rates_j in
  let* sup_j = field "suppression" j in
  let* suppression = suppression_of_json sup_j in
  let t = { flaps; loss_rate; jitter_max; rate_changes; suppression } in
  let* () = validate t in
  Ok t

let to_string t = Json.to_string (to_json t)
