(* dtlint CLI: parse arguments by hand (no dependency beyond
   compiler-libs), lint the given files/directories, print compiler-style
   violations and exit non-zero when any are found.

   Two stages:
   - the syntactic pass (R1-R10) parses sources directly — fast, always on;
   - the typed pass (R11-R15) reads dune-produced .cmt Typedtrees; enable
     it with --typed (and point --cmt-root at the build dir, default
     _build/default when it exists, else "."). `dune build @lint` wires
     this up with the right deps. *)

let default_paths = [ "lib"; "bin"; "examples"; "lint"; "test" ]

let usage () =
  print_string
    ("usage: dtlint [OPTIONS] [PATH...]\n\n\
      Simulator-aware static analysis for the DT-DCTCP codebase. Lints\n\
      every .ml under the given files/directories (default: lib bin\n\
      examples lint test) and exits 1 if any rule is violated, 2 on usage\n\
      or parse errors.\n\n\
      Options:\n\
     \  --only R2[,R4...]   run only the listed rules\n\
     \  --skip R5[,R6...]   run all rules except the listed ones\n\
     \  --typed             also run the typed whole-program rules\n\
     \                      (R11-R15) over .cmt build artifacts\n\
     \  --cmt-root DIR      where to look for .cmt files (repeatable;\n\
     \                      implies --typed; default: _build/default if\n\
     \                      present, else .)\n\
     \  --format FMT        text (default) or json\n\
     \  --list-rules        print the rule table and exit\n\
     \  --help              this message\n\n\
      Suppress a single line with a trailing comment (any rule but R15):\n\
     \  let eq a b = a = b  (* dtlint: allow R2 *)\n\n\
      Keep a lib/ export that only tests use (R15) with a reason on its\n\
      val line:\n\
     \  val live_count : store -> int (* dtlint: test-only: leak checks *)\n\n\
      Rules:\n"
    ^ String.concat ""
        (List.map
           (fun r ->
             Printf.sprintf "  %-4s %s\n" (Dtlint.Rules.rule_id r)
               (Dtlint.Rules.rule_doc r))
           Dtlint.Rules.all_rules))

let fail_usage msg =
  prerr_endline ("dtlint: " ^ msg ^ " (try --help)");
  exit 2

let parse_rule_list s =
  String.split_on_char ',' s
  |> List.filter (fun t -> String.trim t <> "")
  |> List.map (fun t ->
         match Dtlint.Rules.rule_of_id t with
         | Some r -> r
         | None -> fail_usage (Printf.sprintf "unknown rule %S" t))

(* --- JSON output -------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_json violations =
  let item (v : Dtlint.Rules.violation) =
    Printf.sprintf
      "    {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \"message\": \
       \"%s\", \"chain\": [%s]}"
      (Dtlint.Rules.rule_id v.rule) (json_escape v.file) v.line
      (json_escape v.message)
      (String.concat ", "
         (List.map (fun n -> "\"" ^ json_escape n ^ "\"") v.notes))
  in
  Printf.printf "{\n  \"violations\": [\n%s\n  ],\n  \"count\": %d\n}\n"
    (String.concat ",\n" (List.map item violations))
    (List.length violations)

(* --- CLI ---------------------------------------------------------------- *)

type options = {
  only : Dtlint.Rules.rule list;
  skip : Dtlint.Rules.rule list;
  typed : bool;
  cmt_roots : string list;
  json : bool;
  paths : string list;
}

let () =
  let rec go o = function
    | [] -> o
    | ("--help" | "-help" | "-h") :: _ ->
        usage ();
        exit 0
    | "--list-rules" :: _ ->
        List.iter
          (fun r ->
            Printf.printf "%-4s %s\n" (Dtlint.Rules.rule_id r)
              (Dtlint.Rules.rule_doc r))
          Dtlint.Rules.all_rules;
        exit 0
    | "--only" :: v :: rest -> go { o with only = o.only @ parse_rule_list v } rest
    | "--skip" :: v :: rest -> go { o with skip = o.skip @ parse_rule_list v } rest
    | "--typed" :: rest -> go { o with typed = true } rest
    | "--cmt-root" :: v :: rest ->
        go { o with typed = true; cmt_roots = o.cmt_roots @ [ v ] } rest
    | "--format" :: "json" :: rest -> go { o with json = true } rest
    | "--format" :: "text" :: rest -> go { o with json = false } rest
    | "--format" :: v :: _ -> fail_usage (Printf.sprintf "unknown format %S" v)
    | [ ("--only" | "--skip" | "--cmt-root" | "--format") ] ->
        fail_usage "missing option value"
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
        fail_usage (Printf.sprintf "unknown option %S" a)
    | p :: rest -> go { o with paths = p :: o.paths } rest
  in
  let o =
    go
      { only = []; skip = []; typed = false; cmt_roots = []; json = false;
        paths = [] }
      (List.tl (Array.to_list Sys.argv))
  in
  let rules =
    (match o.only with [] -> Dtlint.Rules.all_rules | only -> only)
    |> List.filter (fun r -> not (List.mem r o.skip))
  in
  let syntactic =
    List.filter (fun r -> List.mem r Dtlint.Rules.syntactic_rules) rules
  in
  let typed_rules =
    List.filter (fun r -> List.mem r Dtlint.Rules.typed_rules) rules
  in
  let paths = match List.rev o.paths with [] -> default_paths | ps -> ps in
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then
        fail_usage (Printf.sprintf "no such path %S" p))
    paths;
  let syntactic_violations =
    match Dtlint.Rules.lint_paths ~rules:syntactic paths with
    | vs -> vs
    | exception Dtlint.Rules.Parse_error (file, line, msg) ->
        Printf.eprintf "dtlint: %s:%d: cannot parse: %s\n" file line msg;
        exit 2
  in
  let typed_violations =
    if not o.typed then []
    else begin
      let roots =
        match o.cmt_roots with
        | [] -> if Sys.file_exists "_build/default" then [ "_build/default" ]
                else [ "." ]
        | rs -> rs
      in
      Dtlint.Typed_rules.lint_cmt_roots ~rules:typed_rules ~report_paths:paths
        ~roots ()
    end
  in
  let violations = syntactic_violations @ typed_violations in
  match violations with
  | [] -> if o.json then print_json []
  | violations ->
      if o.json then print_json violations
      else
        List.iter
          (fun v -> Format.printf "%a@." Dtlint.Rules.pp_violation_full v)
          violations;
      Printf.eprintf "dtlint: %d violation%s\n" (List.length violations)
        (if List.length violations = 1 then "" else "s");
      exit 1
