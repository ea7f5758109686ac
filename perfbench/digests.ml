let host_timing_fields = [ "wall_clock_s"; "events_per_s" ]

let normalise = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.filter (fun (k, _) -> not (List.mem k host_timing_fields)) fields)
  | j -> j

let of_json j = Digest.to_hex (Digest.string (Obs.Json.to_string j))

type entry = { name : string; manifest : string; analysis : string; result : string }

let entry (m : Obs.Manifest.t) ~result =
  {
    name = m.Obs.Manifest.name;
    manifest = of_json (normalise (Obs.Manifest.to_json m));
    analysis = Option.fold ~none:"-" ~some:of_json m.Obs.Manifest.analysis;
    result = of_json result;
  }

let equal (a : entry) (b : entry) = a = b

let mismatches ~expected got =
  Array.mapi
    (fun i e -> i >= Array.length expected || not (equal expected.(i) e))
    got

let to_json entries =
  Obs.Json.List
    (Array.to_list
       (Array.map
          (fun e ->
            Obs.Json.Obj
              [
                ("name", Obs.Json.String e.name);
                ("manifest", Obs.Json.String e.manifest);
                ("analysis", Obs.Json.String e.analysis);
                ("result", Obs.Json.String e.result);
              ])
          entries))

let of_json_entries j =
  let str k o =
    match Obs.Json.member k o with
    | Some (Obs.Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "digest entry: missing string %S" k)
  in
  let ( let* ) = Result.bind in
  match j with
  | Obs.Json.List items ->
      List.fold_right
        (fun o acc ->
          let* acc = acc in
          let* name = str "name" o in
          let* manifest = str "manifest" o in
          let* analysis = str "analysis" o in
          let* result = str "result" o in
          Ok ({ name; manifest; analysis; result } :: acc))
        items (Ok [])
      |> Result.map Array.of_list
  | _ -> Error "digest entries: expected a list"
