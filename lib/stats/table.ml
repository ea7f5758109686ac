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
let print ?(oc = stdout) t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.columns in
  let widths = Array.map (fun c -> String.length c.header) t.columns in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell))
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
  Printf.fprintf oc "\n== %s ==\n" t.title;
  for i = 0 to ncols - 1 do
    if i > 0 then output_string oc "  ";
    output_string oc (pad t.columns.(i).align widths.(i) t.columns.(i).header)
  done;
  output_char oc '\n';
  output_string oc (String.make (Stdlib.max total_width 1) '-');
  output_char oc '\n';
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i > 0 then output_string oc "  ";
          output_string oc (pad t.columns.(i).align widths.(i) cell))
        row;
      output_char oc '\n')
    rows;
  flush oc
