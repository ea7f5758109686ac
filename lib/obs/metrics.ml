type t = { tbl : (string, unit -> float) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let probe t name f =
  if Hashtbl.mem t.tbl name then
    invalid_arg (Printf.sprintf "Obs.Metrics: duplicate metric %S" name);
  Hashtbl.replace t.tbl name f

let snapshot t =
  Hashtbl.fold (fun name f acc -> (name, f ()) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot_to_json snap =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) snap)
