type t = {
  name : string;
  seed : int64;
  params : (string * Json.t) list;
  wall_clock_s : float;
  events : int;
  events_per_s : float;
  metrics : (string * float) list;
  analysis : Json.t option;
}

let make ?analysis ~name ~seed ~params ~wall_clock_s ~events ~metrics () =
  let events_per_s =
    if wall_clock_s > 0. then float_of_int events /. wall_clock_s else 0.
  in
  {
    name;
    seed;
    params;
    wall_clock_s;
    events;
    events_per_s;
    metrics = List.sort (fun (a, _) (b, _) -> String.compare a b) metrics;
    analysis;
  }

let to_json m =
  let base =
    [
      ("name", Json.String m.name);
      (* int64 seeds can exceed a JSON reader's integer range; a string
         survives any consumer. *)
      ("seed", Json.String (Int64.to_string m.seed));
      ("params", Json.Obj m.params);
      ("wall_clock_s", Json.Float m.wall_clock_s);
      ("events", Json.Int m.events);
      ("events_per_s", Json.Float m.events_per_s);
      ("metrics", Metrics.snapshot_to_json m.metrics);
    ]
  in
  (* Appended after the historic fields, and only when present: a run
     without analysis serializes byte-identically to pre-analysis
     builds. *)
  match m.analysis with
  | None -> Json.Obj base
  | Some a -> Json.Obj (base @ [ ("analysis", a) ])

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let prefix = "manifest" in
  let field name = Json.field prefix name j in
  let str name = Json.string prefix name j in
  let num name = Json.number prefix name j in
  let* name = str "name" in
  let* seed_s = str "seed" in
  let* seed =
    match Int64.of_string_opt seed_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "manifest: bad seed %S" seed_s)
  in
  let* params =
    let* v = field "params" in
    match v with
    | Json.Obj kvs -> Ok kvs
    | _ -> Json.mistyped prefix "params" "object"
  in
  let* wall_clock_s = num "wall_clock_s" in
  let* events = Json.int prefix "events" j in
  let* events_per_s = num "events_per_s" in
  let* metrics =
    let* v = field "metrics" in
    match v with
    | Json.Obj kvs ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (k, Json.Float f) :: rest -> go ((k, f) :: acc) rest
          | (k, Json.Int i) :: rest -> go ((k, float_of_int i) :: acc) rest
          | (k, _) :: _ ->
              Error (Printf.sprintf "manifest: metric %S is not a number" k)
        in
        go [] kvs
    | _ -> Json.mistyped prefix "metrics" "object"
  in
  let analysis = Json.member "analysis" j in
  Ok { name; seed; params; wall_clock_s; events; events_per_s; metrics; analysis }

let write oc m =
  Json.write oc (to_json m);
  output_char oc '\n'
