type align = Left | Right

type column = { header : string; align : align }

let column ?(align = Right) header = { header; align }

type t = {
  title : string;
  columns : column array;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns = Array.of_list columns; rows = [] }

let add_row t row =
  if List.length row <> Array.length t.columns then
    invalid_arg "Table.add_row: row width mismatch";
  t.rows <- row :: t.rows

let fmt_f digits v = Printf.sprintf "%.*f" digits v
let to_string t =
  let rows = List.rev t.rows in
  let widths = Array.map (fun c -> String.length c.header) t.columns in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- Int.max widths.(i) (String.length cell))
        row)
    rows;
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  let total_width =
    Array.fold_left (fun acc w -> acc + w + 2) 0 widths - 2
  in
  let line cells =
    String.concat "  "
      (List.mapi (fun i cell -> pad t.columns.(i).align widths.(i) cell) cells)
    ^ "\n"
  in
  String.concat ""
    (Printf.sprintf "\n== %s ==\n" t.title
    :: line (Array.to_list (Array.map (fun c -> c.header) t.columns))
    :: (String.make (Int.max total_width 1) '-' ^ "\n")
    :: List.map line rows)
