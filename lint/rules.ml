open Parsetree

type rule =
  | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10
  | R11 | R12 | R13 | R14 | R15

type violation = {
  rule : rule;
  file : string;
  line : int;
  message : string;
  notes : string list;
}

exception Parse_error of string * int * string

let syntactic_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9; R10 ]
let typed_rules = [ R11; R12; R13; R14; R15 ]
let all_rules = syntactic_rules @ typed_rules

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | R12 -> "R12"
  | R13 -> "R13"
  | R14 -> "R14"
  | R15 -> "R15"

let rule_of_id s =
  match String.uppercase_ascii (String.trim s) with
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "R10" -> Some R10
  | "R11" -> Some R11
  | "R12" -> Some R12
  | "R13" -> Some R13
  | "R14" -> Some R14
  | "R15" -> Some R15
  | _ -> None

let rule_doc = function
  | R1 ->
      "no Random.* outside lib/engine/rng.ml; use the seeded Engine.Rng so \
       runs are reproducible"
  | R2 ->
      "no float = / <> / == / !=; compare times with Time's ( < ) / ( <= ) \
       and floats with an epsilon"
  | R3 ->
      "no polymorphic compare / Stdlib.compare / Hashtbl.hash; use an \
       explicit monomorphic comparator"
  | R4 ->
      "no print_* / Printf.printf / Format.printf under lib/; log through \
       Logs or Obs.Trace"
  | R5 -> "every lib/**/*.ml must have a matching .mli"
  | R6 ->
      "no assert false or bare failwith \"\" in lib/engine and lib/net; \
       failures must carry a message with context"
  | R7 ->
      "no wall-clock reads (Sys.time, Unix.gettimeofday, Unix.time) outside \
       lib/obs; simulation logic must use Engine.Time, profiling must go \
       through Obs.Profile"
  | R8 ->
      "no Domain.* / Thread.* / Unix.fork outside lib/exp; Exp.Runner is \
       the only sanctioned parallelism site — simulations stay single-domain \
       so runs are bit-reproducible"
  | R9 ->
      "no Obj.magic outside lib/engine/; the engine's pooled containers are \
       the only audited placeholder-value sites — anywhere else it defeats \
       the type system"
  | R10 ->
      "no Rng.create / Rng.split outside lib/engine, lib/fault, \
       lib/workloads and lib/exp; ad-hoc streams fork the deterministic \
       seed tree, so new draws must come from an owner layer's seeded \
       stream"
  | R11 ->
      "typed: no call chain from Random.*, Hashtbl.hash, polymorphic \
       compare or a wall-clock read into lib/engine|net|tcp|dctcp|fault|\
       workloads — wrapper functions are followed transitively across \
       modules, closing the laundering gap in R1/R3/R7"
  | R12 ->
      "typed: no top-level mutable state (ref, array, Hashtbl, Buffer, \
       mutable record fields) reachable from a Domain.spawn-ing function \
       unless it is Atomic or carries a justified per-domain-ownership \
       annotation — the guard rail for Exp.Runner's parallel sweeps"
  | R13 ->
      "typed: no :> int coercion of an Engine.Time.t instant or \
       Engine.Time.span outside lib/engine; it strips the unit, so \
       convert with Time.to_int_ns / Time.span_to_int_ns instead"
  | R14 ->
      "typed: no per-call allocation in event hot-path functions of \
       lib/engine and lib/net — partial applications, environment-\
       capturing closures and boxed-float returns — and no one-shot \
       scheduling there (Sim.schedule_at/after[_cls], \
       Event_queue.add[_cls]): register the closure once with \
       Sim.action and schedule its index"
  | R15 ->
      "typed: every val in a lib/*/*.mli needs a user outside its own \
       unit and the tests (bin, bench, examples, perfbench and other \
       lib modules count); drop an export used only inside its module \
       from the .mli, delete one used only by tests, or keep it with \
       (* dtlint: test-only: <reason> *) on the val line"

(* --- Path scoping ------------------------------------------------------ *)

type scope = {
  in_lib : bool;
  in_hot_path : bool;
  is_rng : bool;
  is_obs : bool;
  is_exp : bool;
  is_engine : bool;
  is_rng_owner : bool;
}

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

let rec after_lib = function
  | "lib" :: rest -> Some rest
  | _ :: rest -> after_lib rest
  | [] -> None

let scope_of_file file =
  match after_lib (segments file) with
  | None ->
      {
        in_lib = false;
        in_hot_path = false;
        is_rng = false;
        is_obs = false;
        is_exp = false;
        is_engine = false;
        is_rng_owner = false;
      }
  | Some rest ->
      let in_hot_path =
        match rest with ("engine" | "net") :: _ -> true | _ -> false
      in
      let is_rng = match rest with [ "engine"; "rng.ml" ] -> true | _ -> false in
      let is_obs = match rest with "obs" :: _ -> true | _ -> false in
      let is_exp = match rest with "exp" :: _ -> true | _ -> false in
      let is_engine = match rest with "engine" :: _ -> true | _ -> false in
      let is_rng_owner =
        match rest with
        | ("engine" | "fault" | "workloads" | "exp") :: _ -> true
        | _ -> false
      in
      { in_lib = true; in_hot_path; is_rng; is_obs; is_exp; is_engine;
        is_rng_owner }

(* --- Suppression comments ---------------------------------------------- *)

type allow = All | Only of rule list
type suppressions = (int, allow) Hashtbl.t

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Recognise [(* dtlint: allow R2 R4 *)] (or [allow all]) anywhere on a
   line; the listed rules are suppressed for that line only. *)
let suppressions source =
  let tbl = Hashtbl.create 8 in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line ->
      match find_sub line "dtlint:" with
      | None -> ()
      | Some at -> (
          let rest = String.sub line at (String.length line - at) in
          match find_sub rest "allow" with
          | None -> ()
          | Some a ->
              let tail =
                String.sub rest (a + 5) (String.length rest - a - 5)
              in
              let tokens =
                String.map
                  (fun c -> if c = ',' || c = '*' || c = ')' then ' ' else c)
                  tail
                |> String.split_on_char ' '
                |> List.filter (fun t -> t <> "")
              in
              let allow =
                if List.exists (fun t -> String.lowercase_ascii t = "all") tokens
                then All
                else Only (List.filter_map rule_of_id tokens)
              in
              Hashtbl.replace tbl (i + 1) allow))
    lines;
  tbl

let test_only_reason line =
  let marker = "dtlint: test-only" in
  match find_sub line marker with
  | None -> None
  | Some at ->
      let start = at + String.length marker in
      let rest = String.sub line start (String.length line - start) in
      let rest =
        match find_sub rest "*)" with
        | Some e -> String.sub rest 0 e
        | None -> rest
      in
      let rest = String.trim rest in
      if String.length rest > 0 && rest.[0] = ':' then
        Some (String.trim (String.sub rest 1 (String.length rest - 1)))
      else Some rest

let suppressed (sup : suppressions) rule ~line =
  match Hashtbl.find_opt sup line with
  | Some All -> true
  | Some (Only rs) -> List.mem rule rs
  | None -> false

(* --- Expression classification ----------------------------------------- *)

let flatten lid = try Longident.flatten lid with _ -> []

(* Drop the [Stdlib] prefix so [Stdlib.compare] and [compare] match alike. *)
let norm lid =
  match flatten lid with "Stdlib" :: rest -> rest | parts -> parts

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

(* Well-known float-returning functions, for the R2 heuristic. Bare names
   must be unambiguous; module-qualified names match on the last component
   only for [Float.*]. *)
let float_fns =
  [
    "sqrt"; "exp"; "log"; "log10"; "expm1"; "log1p"; "cos"; "sin"; "tan";
    "acos"; "asin"; "atan"; "atan2"; "cosh"; "sinh"; "tanh"; "ceil"; "floor";
    "abs_float"; "mod_float"; "float_of_int"; "float_of_string"; "ldexp";
    "to_sec"; "span_to_sec"; "to_float";
  ]

let float_consts =
  [ "infinity"; "nan"; "neg_infinity"; "epsilon_float"; "max_float"; "min_float" ]

(* Syntactic "this is a float" evidence for R2. The parsetree is untyped,
   so this is a heuristic: float literals, float arithmetic, float type
   annotations and calls to well-known float producers. *)
let rec is_floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []); _ })
    ->
      true
  | Pexp_ident { txt; _ } -> (
      match norm txt with
      | [ c ] -> List.mem c float_consts
      | [ "Float"; f ] -> List.mem f float_consts || f = "pi"
      | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match norm txt with
      | [ op ] when List.mem op float_ops -> true
      | [ "Float"; _ ] -> true
      | parts -> (
          match List.rev parts with
          | last :: _ -> List.mem last float_fns
          | [] -> false))
  | Pexp_ifthenelse (_, a, Some b) -> is_floatish a || is_floatish b
  | _ -> false

let is_wall_clock parts =
  match parts with
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] -> true
  | _ -> false

let is_print_fn parts =
  match parts with
  | [ ("print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes") ] ->
      true
  | [ "Printf"; "printf" ] -> true
  | [ "Format"; f ] ->
      (match find_sub f "print" with Some 0 -> true | _ -> f = "printf")
  | _ -> false

(* --- The linter itself -------------------------------------------------- *)

let parse_structure ~filename source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf filename;
  try Parse.implementation lexbuf
  with exn ->
    let line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum in
    let msg =
      match exn with
      | Syntaxerr.Error _ -> "syntax error"
      | e -> Printexc.to_string e
    in
    raise (Parse_error (filename, line, msg))

(* Does the file itself bind a value called [compare]? If so, bare
   [compare] refers to that monomorphic binding, not Stdlib's polymorphic
   one, and R3 must not fire (cf. Engine.Time). *)
let binds_compare str =
  let found = ref false in
  let pat sub p =
    (match p.ppat_desc with
    | Ppat_var { txt = "compare"; _ } -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.pat sub p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.structure it str;
  !found

let lint_source ?(rules = all_rules) ~filename source =
  let sc = scope_of_file filename in
  let active r = List.mem r rules in
  let sup = suppressions source in
  let out = ref [] in
  let emit rule loc message =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    if not (suppressed sup rule ~line) then
      out := { rule; file = filename; line; message; notes = [] } :: !out
  in
  let str = parse_structure ~filename source in
  let compare_is_local = binds_compare str in
  let check_ident loc lid =
    let parts = norm lid in
    if active R1 && (not sc.is_rng) && List.mem "Random" parts then
      emit R1 loc
        "Random is non-deterministic across runs; draw from the seeded \
         Engine.Rng instead";
    (if active R3 then
       match parts with
       | [ "compare" ] when not compare_is_local ->
           emit R3 loc
             "polymorphic compare; pass an explicit comparator (e.g. \
              Int.compare, Float.compare)"
       | [ "Hashtbl"; ("hash" | "seeded_hash") ] ->
           emit R3 loc
             "polymorphic Hashtbl.hash; hash a canonical key (e.g. the \
              packet id) explicitly"
       | _ -> ());
    if active R4 && sc.in_lib && is_print_fn parts then
      emit R4 loc
        "direct console output inside lib/; route through Logs or Obs.Trace \
         so headless benches stay clean";
    if active R7 && (not sc.is_obs) && is_wall_clock parts then
      emit R7 loc
        "wall-clock read outside lib/obs; simulated time is Engine.Time and \
         profiling goes through Obs.Profile, so runs stay deterministic";
    if
      active R9 && (not sc.is_engine)
      && match parts with [ "Obj"; "magic" ] -> true | _ -> false
    then
      emit R9 loc
        "Obj.magic outside lib/engine/; only the engine's pooled containers \
         may use a placeholder value, and their caveats (no float elements) \
         are documented there";
    (if active R10 && not sc.is_rng_owner then
       match List.rev parts with
       | ("create" | "split") :: "Rng" :: _ ->
           emit R10 loc
             "new Rng stream outside an owner layer (lib/engine, lib/fault, \
              lib/workloads, lib/exp); derive randomness from the owning \
              layer's seeded stream so the seed tree stays deterministic"
       | _ -> ());
    if active R8 && not sc.is_exp then
      match parts with
      | ("Domain" | "Thread") :: _ | [ "Unix"; "fork" ] ->
          emit R8 loc
            "parallelism primitive outside lib/exp; run whole specs through \
             Exp.Runner instead — a simulation must stay a single-domain \
             program to be bit-reproducible"
      | _ -> ()
  in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident loc txt
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
          [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] )
      when active R2 && (op = "=" || op = "<>" || op = "==" || op = "!=") ->
        if is_floatish a || is_floatish b then
          emit R2 e.pexp_loc
            (Printf.sprintf
               "float %s is exact-bit comparison; use Time's ( < ) / ( <= ) or \
                an epsilon test"
               op)
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      when active R6 && sc.in_hot_path ->
        emit R6 e.pexp_loc
          "assert false carries no context; raise with a message naming the \
           invariant"
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt; _ }; _ },
          [ (Asttypes.Nolabel, { pexp_desc = Pexp_constant (Pconst_string ("", _, _)); _ }) ] )
      when active R6 && sc.in_hot_path
           && (match norm txt with
              | [ ("failwith" | "invalid_arg") ] -> true
              | _ -> false) ->
        emit R6 e.pexp_loc
          "empty failure message; say which invariant broke and with what \
           values"
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let module_expr sub m =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } ->
        if active R1 && (not sc.is_rng) && List.mem "Random" (norm txt) then
          emit R1 loc
            "Random is non-deterministic across runs; draw from the seeded \
             Engine.Rng instead";
        if
          active R8 && (not sc.is_exp)
          &&
          match norm txt with
          | ("Domain" | "Thread") :: _ -> true
          | _ -> false
        then
          emit R8 loc
            "parallelism primitive outside lib/exp; run whole specs through \
             Exp.Runner instead — a simulation must stay a single-domain \
             program to be bit-reproducible"
    | _ -> ());
    Ast_iterator.default_iterator.module_expr sub m
  in
  let it = { Ast_iterator.default_iterator with expr; module_expr } in
  it.structure it str;
  List.sort
    (fun a b ->
      match Int.compare a.line b.line with
      | 0 -> String.compare (rule_id a.rule) (rule_id b.rule)
      | c -> c)
    !out

let check_mli ~ml_file ~mli_exists =
  let sc = scope_of_file ml_file in
  if sc.in_lib && Filename.check_suffix ml_file ".ml" && not mli_exists then
    Some
      {
        rule = R5;
        file = ml_file;
        line = 1;
        notes = [];
        message =
          Printf.sprintf
            "missing interface %si; every lib module must state its public \
             API"
            ml_file;
      }
  else None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?(rules = all_rules) path =
  if Filename.check_suffix path ".ml" then
    let vs = lint_source ~rules ~filename:path (read_file path) in
    if List.mem R5 rules then
      match check_mli ~ml_file:path ~mli_exists:(Sys.file_exists (path ^ "i")) with
      | Some v -> v :: vs
      | None -> vs
    else vs
  else []

let rec walk path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "" || name.[0] = '.' || name.[0] = '_' then acc
           else walk (Filename.concat path name) acc)
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths ?(rules = all_rules) paths =
  let files = List.fold_left (fun acc p -> walk p acc) [] paths in
  files
  |> List.sort_uniq String.compare
  |> List.concat_map (fun f -> lint_file ~rules f)

let pp_violation ppf v =
  Format.fprintf ppf "%s:%d: [%s] %s" v.file v.line (rule_id v.rule) v.message

(* Head line as [pp_violation], then one indented line per note (call-chain
   steps for the typed rules). Keeping notes off the head line lets a CI
   problem matcher parse [file:line: [Rn] message] while the log still shows
   the full trace. *)
let pp_violation_full ppf v =
  pp_violation ppf v;
  List.iter (fun n -> Format.fprintf ppf "@\n    %s" n) v.notes
