let glyphs = [| '*'; '+'; 'o'; 'x'; '~'; '#' |]

let render ?(width = 72) ?(height = 16) ?(y_label = "") ~series () =
  let all_values = List.concat_map (fun (_, vs) -> Array.to_list vs) series in
  match all_values with
  | [] -> "(empty plot)\n"
  | _ :: _ ->
      let y_min = List.fold_left Stdlib.min infinity all_values in
      let y_max = List.fold_left Stdlib.max neg_infinity all_values in
      let y_min, y_max =
        if y_max > y_min then (y_min, y_max) else (y_min -. 1., y_max +. 1.)
      in
      let grid = Array.make_matrix height width ' ' in
      let plot_series idx (_, values) =
        let n = Array.length values in
        if n > 0 then begin
          let glyph = glyphs.(idx mod Array.length glyphs) in
          for col = 0 to width - 1 do
            (* Nearest-sample mapping from column to series index. *)
            let i =
              if n = 1 then 0
              else
                int_of_float
                  (Float.round
                     (float_of_int col /. float_of_int (width - 1)
                     *. float_of_int (n - 1)))
            in
            let v = values.(i) in
            let row_f = (v -. y_min) /. (y_max -. y_min) *. float_of_int (height - 1) in
            let row = height - 1 - int_of_float (Float.round row_f) in
            let row = Stdlib.max 0 (Stdlib.min (height - 1) row) in
            grid.(row).(col) <- glyph
          done
        end
      in
      List.iteri plot_series series;
      let buf = Buffer.create 1024 in
      if y_label <> "" then Buffer.add_string buf (y_label ^ "\n");
      Array.iteri
        (fun r line ->
          let label =
            if r = 0 then Printf.sprintf "%10.2f |" y_max
            else if r = height - 1 then Printf.sprintf "%10.2f |" y_min
            else Printf.sprintf "%10s |" ""
          in
          Buffer.add_string buf label;
          Buffer.add_string buf (String.init width (fun c -> line.(c)));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
      List.iteri
        (fun idx (name, _) ->
          Buffer.add_string buf
            (Printf.sprintf "%12s %s\n"
               (String.make 1 glyphs.(idx mod Array.length glyphs))
               name))
        series;
      Buffer.contents buf
