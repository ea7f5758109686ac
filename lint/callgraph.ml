type def = {
  id : string;
  unit_canonical : string;
  source : string;
  line : int;
}

type t = {
  defs_tbl : (string, def) Hashtbl.t;
  refs_tbl : (string, (string * int) list) Hashtbl.t;
  ident_ids : (string, string) Hashtbl.t;
      (* "<unit>\x00<Ident.unique_name>" -> node id, for resolving bare
         in-module references (Pident) to the binding they denote. Ident
         stamps restart for every compilation unit, so the key must carry
         the unit: two files of similar shape routinely give their
         top-level bindings identical stamps, and an unscoped table
         cross-wires them. Pidents can only denote same-unit bindings
         (cross-module references are Pdots), so the unit of the body
         being scanned is the right scope. *)
  bodies_ : (def * Typedtree.expression) list;
  globals_ : (def * Types.type_expr) list;
  type_decls_ : (string, Typedtree.type_declaration) Hashtbl.t;
}

let strip_stdlib s =
  let p = "Stdlib." in
  let lp = String.length p in
  if String.length s > lp && String.sub s 0 lp = p then
    String.sub s lp (String.length s - lp)
  else s

let normalize path =
  strip_stdlib (Cmt_loader.canonical_of_modname (Path.name path))

let line_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let alias_key (u : Cmt_loader.unit_info) i =
  u.canonical ^ "\x00" ^ Ident.unique_name i

(* [normalize] in the scope of one unit: a head that is a module alias
   the unit binds expands to the aliased path, and an executable's
   [Dune.exe.] sibling prefix becomes the unit's own directory-qualified
   namespace. *)
let normalize_in aliases (u : Cmt_loader.unit_info) path =
  let name =
    match path with
    | Path.Pident _ -> normalize path
    | _ -> (
        let head = Path.head path in
        match
          Hashtbl.find_opt aliases (alias_key u head)
        with
        | Some target ->
            let full = Path.name path in
            let h = String.length (Ident.name head) in
            target ^ String.sub full h (String.length full - h)
        | None -> normalize path)
  in
  Cmt_loader.qualify u name

let rec alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let build units =
  let defs_tbl = Hashtbl.create 512 in
  let refs_tbl = Hashtbl.create 512 in
  let ident_ids = Hashtbl.create 512 in
  (* "<unit>\x00<Ident.unique_name>" -> canonical module path, for each
     module alias ([module Time = Engine.Time]) a unit binds. The compiler
     keeps the alias in use-site paths ([Time.add]), so without this a
     reference through an alias resolves to nothing. *)
  let aliases = Hashtbl.create 64 in
  let bodies = ref [] in
  let globals = ref [] in
  let type_decls_ = Hashtbl.create 64 in
  (* Pass 1: collect module-level bindings (nested modules included) and
     remember which body belongs to which node. *)
  let unit_of = Hashtbl.create 64 in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      Hashtbl.replace unit_of u.canonical u;
      let add_def id line expr =
        let d = { id; unit_canonical = u.canonical; source = u.source; line } in
        if not (Hashtbl.mem defs_tbl id) then begin
          Hashtbl.replace defs_tbl id d;
          bodies := (d, expr) :: !bodies
        end;
        d
      in
      let rec collect_str prefix (str : Typedtree.structure) =
        List.iter
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Tstr_value (_, vbs) ->
                List.iter
                  (fun (vb : Typedtree.value_binding) ->
                    let line = line_of_loc vb.vb_loc in
                    match Typedtree.pat_bound_idents vb.vb_pat with
                    | [] ->
                        ignore
                          (add_def
                             (Printf.sprintf "%s.<init:%d>" prefix line)
                             line vb.vb_expr)
                    | first :: _ as ids ->
                        let id = prefix ^ "." ^ Ident.name first in
                        let d = add_def id line vb.vb_expr in
                        List.iter
                          (fun i ->
                            Hashtbl.replace ident_ids
                              (u.canonical ^ "\x00" ^ Ident.unique_name i)
                              id)
                          ids;
                        (match ids with
                        | [ _ ] ->
                            globals := (d, vb.vb_pat.pat_type) :: !globals
                        | _ -> ()))
                  vbs
            | Tstr_eval (e, _) ->
                let line = line_of_loc item.str_loc in
                ignore
                  (add_def (Printf.sprintf "%s.<init:%d>" prefix line) line e)
            | Tstr_type (_, decls) ->
                List.iter
                  (fun (td : Typedtree.type_declaration) ->
                    Hashtbl.replace type_decls_
                      (prefix ^ "." ^ Ident.name td.typ_id)
                      td)
                  decls
            | Tstr_module mb ->
                let name =
                  match mb.mb_id with Some i -> Ident.name i | None -> "_"
                in
                (match (mb.mb_id, alias_target mb.mb_expr) with
                | Some i, Some p ->
                    Hashtbl.replace aliases (alias_key u i)
                      (normalize_in aliases u p)
                | _ -> ());
                collect_mod (prefix ^ "." ^ name) mb.mb_expr
            | Tstr_recmodule mbs ->
                List.iter
                  (fun (mb : Typedtree.module_binding) ->
                    let name =
                      match mb.mb_id with Some i -> Ident.name i | None -> "_"
                    in
                    collect_mod (prefix ^ "." ^ name) mb.mb_expr)
                  mbs
            | _ -> ())
          str.str_items
      and collect_mod prefix (me : Typedtree.module_expr) =
        match me.mod_desc with
        | Tmod_structure str -> collect_str prefix str
        | Tmod_constraint (me, _, _, _) -> collect_mod prefix me
        | Tmod_functor (_, me) -> collect_mod prefix me
        | _ -> ()
      in
      collect_str u.canonical u.structure)
    units;
  (* Pass 2: collect references per body. A reference in any position is
     an edge — closures escape into the event queue, so "mentions" is the
     sound notion of "may call". *)
  List.iter
    (fun ((d : def), expr) ->
      let u = Hashtbl.find unit_of d.unit_canonical in
      let seen = Hashtbl.create 16 in
      let out = ref [] in
      let record target line =
        if not (Hashtbl.mem seen target) then begin
          Hashtbl.add seen target ();
          out := (target, line) :: !out
        end
      in
      let expr_it sub (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (path, _, _) -> (
            let line = line_of_loc e.exp_loc in
            match path with
            | Path.Pident i -> (
                match
                  Hashtbl.find_opt ident_ids
                    (d.unit_canonical ^ "\x00" ^ Ident.unique_name i)
                with
                | Some id -> record id line
                | None -> (* local binding: not an edge *) ())
            | _ -> record (normalize_in aliases u path) line)
        | Texp_letmodule (Some i, _, _, me, _) -> (
            (* [let module C = Engine.Event_class in ...]: visited before
               its body, so the alias is known by the time C.x is seen. *)
            match alias_target me with
            | Some p ->
                Hashtbl.replace aliases (alias_key u i)
                  (normalize_in aliases u p)
            | None -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
      in
      let it = { Tast_iterator.default_iterator with expr = expr_it } in
      it.expr it expr;
      Hashtbl.replace refs_tbl d.id (List.rev !out))
    !bodies;
  let cmp_fst (a, _) (b, _) = String.compare a.id b.id in
  {
    defs_tbl;
    refs_tbl;
    ident_ids;
    bodies_ = List.sort cmp_fst !bodies;
    globals_ = List.sort cmp_fst !globals;
    type_decls_;
  }

let defs t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.defs_tbl []
  |> List.sort (fun a b -> String.compare a.id b.id)

let find_def t id = Hashtbl.find_opt t.defs_tbl id
let refs t id = Option.value ~default:[] (Hashtbl.find_opt t.refs_tbl id)

let resolve t ~from_def target =
  if Hashtbl.mem t.defs_tbl target then Some target
  else
    (* Walk up the enclosing-module prefixes of the referrer. *)
    let rec up prefix =
      match String.rindex_opt prefix '.' with
      | None -> None
      | Some i ->
          let prefix = String.sub prefix 0 i in
          let candidate = prefix ^ "." ^ target in
          if Hashtbl.mem t.defs_tbl candidate then Some candidate
          else up prefix
    in
    up from_def

let bodies t = t.bodies_
let globals t = t.globals_

let type_decls t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.type_decls_ []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let is_toplevel_ident t ~unit i =
  Hashtbl.mem t.ident_ids (unit ^ "\x00" ^ Ident.unique_name i)
