type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- writer --- *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Shortest decimal form that parses back to the same bits, kept
   recognisably float (so Float never round-trips into Int). *)
let float_repr f =
  let bits = Int64.bits_of_float f in
  let short = Printf.sprintf "%.15g" f in
  let s =
    match float_of_string_opt short with
    | Some back when Int64.equal (Int64.bits_of_float back) bits -> short
    | Some _ | None -> Printf.sprintf "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec to_buffer b v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      (* JSON has no inf/nan literals; degrade to null rather than emit an
         unparseable document. *)
      if Float.is_finite f then Buffer.add_string b (float_repr f)
      else Buffer.add_string b "null"
  | String s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          add_escaped b k;
          Buffer.add_string b "\":";
          to_buffer b x)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let write oc v = output_string oc (to_string v)

(* --- parser --- *)

exception Fail of string * int

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let cur () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match cur () with
    | Some c' when Char.equal c c' -> incr pos
    | Some _ | None -> fail (Printf.sprintf "expected %C" c)
  in
  let lit word v =
    let m = String.length word in
    if !pos + m <= n && String.equal (String.sub s !pos m) word then begin
      pos := !pos + m;
      v
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents b
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                (match int_of_string_opt ("0x" ^ hex) with
                | Some code ->
                    add_utf8 b code;
                    pos := !pos + 4
                | None -> fail "bad \\u escape")
            | c -> fail (Printf.sprintf "bad escape %C" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    (match cur () with Some '-' -> incr pos | Some _ | None -> ());
    let continue = ref true in
    while !continue && !pos < n do
      (match s.[!pos] with
      | '0' .. '9' -> incr pos
      | '.' | 'e' | 'E' ->
          is_float := true;
          incr pos
      | '+' | '-' when !is_float -> incr pos
      | _ -> continue := false);
      ()
    done;
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec value () =
    skip_ws ();
    match cur () with
    | None -> fail "unexpected end of input"
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> String (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  and arr () =
    expect '[';
    skip_ws ();
    match cur () with
    | Some ']' ->
        incr pos;
        List []
    | _ ->
        let rec items acc =
          let v = value () in
          skip_ws ();
          match cur () with
          | Some ',' ->
              incr pos;
              items (v :: acc)
          | Some ']' ->
              incr pos;
              List (List.rev (v :: acc))
          | Some _ | None -> fail "expected ',' or ']'"
        in
        items []
  and obj () =
    expect '{';
    skip_ws ();
    match cur () with
    | Some '}' ->
        incr pos;
        Obj []
    | _ ->
        let rec fields acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match cur () with
          | Some ',' ->
              incr pos;
              fields ((k, v) :: acc)
          | Some '}' ->
              incr pos;
              Obj (List.rev ((k, v) :: acc))
          | Some _ | None -> fail "expected ',' or '}'"
        in
        fields []
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing input after value";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) -> Error (Printf.sprintf "offset %d: %s" p msg)

(* --- accessors and equality --- *)

let member key v =
  match v with Obj kvs -> List.assoc_opt key kvs | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | String x, String y -> String.equal x y
  | List xs, List ys -> List.equal equal xs ys
  | Obj xs, Obj ys ->
      List.equal
        (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
        xs ys
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false

(* --- typed field readers --- *)

let mistyped prefix name what =
  Error (Printf.sprintf "%s: field %S is not a %s" prefix name what)

let field prefix name j =
  match member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" prefix name)

let int prefix name j =
  Result.bind (field prefix name j) (function
    | Int i -> Ok i
    | _ -> mistyped prefix name "int")

let number prefix name j =
  Result.bind (field prefix name j) (function
    | Float f -> Ok f
    | Int i -> Ok (float_of_int i)
    | _ -> mistyped prefix name "number")

let bool prefix name j =
  Result.bind (field prefix name j) (function
    | Bool b -> Ok b
    | _ -> mistyped prefix name "bool")

let string prefix name j =
  Result.bind (field prefix name j) (function
    | String s -> Ok s
    | _ -> mistyped prefix name "string")
