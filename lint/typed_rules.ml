let rules = Rules.typed_rules

let line_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

let rec after_lib = function
  | "lib" :: rest -> Some rest
  | _ :: rest -> after_lib rest
  | [] -> None

(* R11's protected tree: the layers whose behaviour the paper's figures
   depend on. lib/obs, lib/exp, lib/stats, lib/fluid, lib/control are
   deliberately outside: they either own a sanctioned effect (obs: wall
   clock; exp: domains) or never run inside a simulation. *)
let protected_dirs = [ "engine"; "net"; "tcp"; "dctcp"; "fault"; "workloads" ]

let is_protected src =
  match after_lib (segments src) with
  | Some (d :: _) -> List.mem d protected_dirs
  | _ -> false

let is_time_ml src =
  match after_lib (segments src) with
  | Some [ "engine"; "time.ml" ] -> true
  | _ -> false

let is_engine src =
  match after_lib (segments src) with
  | Some ("engine" :: _) -> true
  | _ -> false

let under_paths paths file =
  match paths with
  | [] -> true
  | _ ->
      let norm p =
        let p = if String.length p > 2 && String.sub p 0 2 = "./" then
            String.sub p 2 (String.length p - 2)
          else p
        in
        match String.length p with
        | 0 -> p
        | n -> if p.[n - 1] = '/' then String.sub p 0 (n - 1) else p
      in
      List.exists
        (fun p ->
          let p = norm p in
          file = p
          || String.length file > String.length p
             && String.sub file 0 (String.length p + 1) = p ^ "/")
        paths

(* R15's notion of a test unit: its references do not keep an export
   alive. *)
let is_test_source src =
  match segments src with
  | "test" :: _ | [ "perfbench"; "test_perfbench.ml" ] -> true
  | _ -> false

(* --- type inspection helpers ------------------------------------------- *)

let type_head ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (Callgraph.normalize p)
  | _ -> None

let rec arrow_result ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, ret, _) -> arrow_result ret
  | _ -> ty

let mutable_builtin_heads =
  [ "ref"; "array"; "bytes"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t" ]

(* Is [ty] a mutable container? Returns a human description of why.
   Looks through builtins, then through type declarations found in the
   loaded units themselves (a record with a [mutable] field, or whose
   fields are themselves mutable containers — one recursive walk with a
   visited set, so recursive types terminate). [Atomic.t] is the sanctioned
   cross-domain cell and is never mutable for R12's purposes. *)
let mutability decls ty =
  let rec go visited ty =
    match Types.get_desc ty with
    | Types.Tconstr (p, _, _) -> (
        let name = Callgraph.normalize p in
        if name = "Atomic.t" then None
        else if List.mem name mutable_builtin_heads then Some name
        else if List.mem name visited then None
        else
          match Hashtbl.find_opt decls name with
          | None -> None
          | Some (td : Typedtree.type_declaration) ->
              decl (name :: visited) name td)
    | _ -> None
  and decl visited name (td : Typedtree.type_declaration) =
    match td.typ_kind with
    | Ttype_record fields -> record_fields visited name fields
    | Ttype_variant constructors ->
        List.find_map
          (fun (cd : Typedtree.constructor_declaration) ->
            match cd.cd_args with
            | Cstr_record fields -> record_fields visited name fields
            | Cstr_tuple _ -> None)
          constructors
    | Ttype_abstract -> (
        match td.typ_manifest with
        | Some ct -> go visited ct.ctyp_type
        | None -> None)
    | Ttype_open -> None
  and record_fields visited name fields =
    List.find_map
      (fun (ld : Typedtree.label_declaration) ->
        match ld.ld_mutable with
        | Mutable ->
            Some
              (Printf.sprintf "%s, record with mutable field '%s'" name
                 (Ident.name ld.ld_id))
        | Immutable -> (
            match go visited ld.ld_type.ctyp_type with
            | Some why ->
                Some
                  (Printf.sprintf "%s, field '%s' holds %s" name
                     (Ident.name ld.ld_id) why)
            | None -> None))
      fields
  in
  go [] ty

(* --- violation emission ------------------------------------------------- *)

let default_read_source file =
  if Sys.file_exists file && not (Sys.is_directory file) then
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  else None

let lint_units ?(rules = rules) ?(report_paths = [])
    ?(read_source = default_read_source) units =
  let graph = Callgraph.build units in
  let eff = Effects.compute graph in
  let sup_cache : (string, Rules.suppressions option) Hashtbl.t =
    Hashtbl.create 16
  in
  let suppressions_for file =
    match Hashtbl.find_opt sup_cache file with
    | Some s -> s
    | None ->
        let s = Option.map Rules.suppressions (read_source file) in
        Hashtbl.add sup_cache file s;
        s
  in
  let out = ref [] in
  let emit ?(suppressible = true) rule ~file ~line ~message ~notes =
    if List.mem rule rules && under_paths report_paths file then
      let allowed =
        suppressible
        &&
        match suppressions_for file with
        | Some sup -> Rules.suppressed sup rule ~line
        | None -> false
      in
      if not allowed then
        out := { Rules.rule; file; line; message; notes } :: !out
  in
  let defs = Callgraph.defs graph in

  (* ---- R11: transitive determinism taint ---- *)
  let taint_line = function
    | Effects.Root { line; _ } | Effects.Via { line; _ } -> line
  in
  let report_r11 (d : Callgraph.def) kind reason =
    (* Entry points only: a violation whose taint flows through another
       protected function is that function's violation, not this one's —
       one report per laundering site, not one per caller. *)
    let entry =
      match reason with
      | Effects.Root _ -> true
      | Effects.Via { def; _ } -> (
          match Callgraph.find_def graph def with
          | Some gd -> not (is_protected gd.source)
          | None -> true)
    in
    if entry then begin
      let chain = Effects.chain graph eff kind d.id in
      let root = match List.rev chain with r :: _ -> r | [] -> "?" in
      let message =
        match kind with
        | Effects.Nondet ->
            Printf.sprintf
              "%s reaches %s through the call chain below; every figure \
               depends on bit-identical replay, so draw from the seeded \
               Engine.Rng (or hash/compare a canonical key) instead"
              d.id root
        | Effects.Wall ->
            Printf.sprintf
              "%s reaches the wall clock (%s) through the call chain below; \
               simulation logic must use Engine.Time, profiling goes \
               through Obs.Profile"
              d.id root
        | Effects.Spawn -> assert false
      in
      emit Rules.R11 ~file:d.source ~line:(taint_line reason) ~message
        ~notes:(List.mapi (fun i s -> if i = 0 then s else "-> " ^ s) chain)
    end
  in
  if List.mem Rules.R11 rules then
    List.iter
      (fun (d : Callgraph.def) ->
        if is_protected d.source then begin
          let t = Effects.taint_of eff d.id in
          (match t.Effects.nondet with
          | Some r -> report_r11 d Effects.Nondet r
          | None -> ());
          match t.Effects.wall with
          | Some r -> report_r11 d Effects.Wall r
          | None -> ()
        end)
      defs;

  (* ---- R12: top-level mutable state reachable from domain spawns ---- *)
  if List.mem Rules.R12 rules then begin
    let decls = Hashtbl.create 64 in
    List.iter
      (fun (name, td) -> Hashtbl.replace decls name td)
      (Callgraph.type_decls graph);
    let mutable_globals =
      List.filter_map
        (fun ((d : Callgraph.def), ty) ->
          match mutability decls ty with
          | Some why -> Some (d.id, (d, why))
          | None -> None)
        (Callgraph.globals graph)
    in
    let spawners =
      List.filter
        (fun (d : Callgraph.def) ->
          List.exists
            (fun (target, _) -> Effects.classify_root target = Some Effects.Spawn)
            (Callgraph.refs graph d.id))
        defs
    in
    (* BFS from each spawning function over resolved references, keeping
       parent edges for the reported chain. Deterministic: defs and refs
       are both in canonical order. *)
    let parent : (string, (string * int) option) Hashtbl.t =
      Hashtbl.create 256
    in
    let queue = Queue.create () in
    List.iter
      (fun (d : Callgraph.def) ->
        if not (Hashtbl.mem parent d.id) then begin
          Hashtbl.replace parent d.id None;
          Queue.push d.id queue
        end)
      spawners;
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      List.iter
        (fun (target, line) ->
          match Callgraph.resolve graph ~from_def:id target with
          | Some node when not (Hashtbl.mem parent node) ->
              Hashtbl.replace parent node (Some (id, line));
              Queue.push node queue
          | _ -> ())
        (Callgraph.refs graph id)
    done;
    let rec chain_to id acc =
      match Hashtbl.find_opt parent id with
      | Some (Some (p, line)) -> (
          match Callgraph.find_def graph p with
          | Some pd ->
              chain_to p
                (Printf.sprintf "%s (%s:%d)" pd.id pd.source line :: acc)
          | None -> acc)
      | _ -> acc
    in
    List.iter
      (fun (gid, ((gd : Callgraph.def), why)) ->
        match Hashtbl.find_opt parent gid with
        | Some _ ->
            let chain = chain_to gid [] in
            let spawner =
              match chain with
              | s :: _ -> (
                  match String.index_opt s ' ' with
                  | Some i -> String.sub s 0 i
                  | None -> s)
              | [] -> gd.id
            in
            let message =
              Printf.sprintf
                "%s is module-level mutable state (%s) reachable from the \
                 domain-spawning %s — a data race once specs fan out across \
                 Domains; make it Atomic.t, allocate it per run, or keep it \
                 and document per-domain ownership with (* dtlint: allow \
                 R12 *) on this line"
                gd.id why spawner
            in
            emit Rules.R12 ~file:gd.source ~line:gd.line ~message
              ~notes:
                (List.mapi (fun i s -> if i = 0 then s else "-> " ^ s) chain
                @ [ Printf.sprintf "-> touches %s (%s:%d)" gd.id gd.source
                      gd.line ])
        | None -> ())
      mutable_globals
  end;

  (* ---- R13: unit-stripping coercions of Engine.Time values ---- *)
  if List.mem Rules.R13 rules then begin
    (* A use site may reach the types through an alias of the module
       ([module Time = Engine.Time] gives [Time.span]); no other module in
       the tree is called Time. *)
    let is_time_type ty =
      match type_head ty with
      | Some name ->
          List.exists
            (fun suffix ->
              name = suffix || String.ends_with ~suffix:("." ^ suffix) name)
            [ "Time.t"; "Time.span" ]
      | None -> false
    in
    (* The type an expression had before [:>]: the coercion replaces
       [exp_type] with its target, so read the source back from the
       annotation, or from what the expression is. *)
    let source_type (e : Typedtree.expression) from =
      match from with
      | Some (cty : Typedtree.core_type) -> Some cty.ctyp_type
      | None -> (
          match e.exp_desc with
          | Texp_ident (_, _, vd) -> Some vd.val_type
          | Texp_apply (f, _) -> Some (arrow_result f.exp_type)
          | Texp_field (_, _, lbl) -> Some lbl.lbl_arg
          | _ -> None)
    in
    let strips_unit (e : Typedtree.expression) =
      List.exists
        (fun (extra, _, _) ->
          match extra with
          | Typedtree.Texp_coerce (from, (target : Typedtree.core_type)) -> (
              type_head target.ctyp_type = Some "int"
              &&
              match source_type e from with
              | Some ty -> is_time_type ty
              | None -> false)
          | _ -> false)
        e.exp_extra
    in
    List.iter
      (fun (u : Cmt_loader.unit_info) ->
        if not (is_engine u.source) then begin
          let expr sub (e : Typedtree.expression) =
            if strips_unit e then
              emit Rules.R13 ~file:u.source ~line:(line_of_loc e.exp_loc)
                ~message:
                  "coercing an Engine.Time instant or span to int strips \
                   its unit; convert with Time.to_int_ns / \
                   Time.span_to_int_ns so the escape is greppable (only \
                   lib/engine sees the representation)"
                ~notes:[];
            Tast_iterator.default_iterator.expr sub e
          in
          let it = { Tast_iterator.default_iterator with expr } in
          it.structure it u.structure
        end)
      units
  end;

  (* ---- R14: per-call allocation in event hot-path functions ---- *)
  if List.mem Rules.R14 rules then begin
    let whole_module_roots src =
      match after_lib (segments src) with
      | Some
          [ "engine"; ("event_queue.ml" | "int_ring.ml") ] ->
          true
      | Some [ "net"; ("packet.ml" | "ecmp.ml") ] -> true
      | _ -> false
    in
    let named_roots =
      [
        "Engine.Sim.step"; "Engine.Sim.run"; "Engine.Sim.schedule_at";
        "Engine.Sim.schedule_after"; "Engine.Sim.schedule_action_at";
        "Engine.Sim.schedule_action_after"; "Engine.Sim.cancel";
        "Engine.Sim.now"; "Engine.Timer.set";
        (* a port's registered actions: each runs once per packet *)
        "Net.Port.send"; "Net.Port.finish_tx"; "Net.Port.deliver_head";
        "Net.Queue_disc.enqueue";
        "Net.Queue_disc.dequeue_exn"; "Net.Queue_disc.is_empty";
        "Net.Switch.receive"; "Net.Host.receive";
      ]
    in
    let in_engine_or_net src =
      match after_lib (segments src) with
      | Some (("engine" | "net") :: _) -> true
      | _ -> false
    in
    (* Hot set: roots plus everything they reach inside lib/engine|net. *)
    let hot : (string, unit) Hashtbl.t = Hashtbl.create 128 in
    let queue = Queue.create () in
    List.iter
      (fun (d : Callgraph.def) ->
        if whole_module_roots d.source || List.mem d.id named_roots then begin
          Hashtbl.replace hot d.id ();
          Queue.push d.id queue
        end)
      defs;
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      List.iter
        (fun (target, _) ->
          match Callgraph.resolve graph ~from_def:id target with
          | Some node when not (Hashtbl.mem hot node) -> (
              match Callgraph.find_def graph node with
              | Some nd when in_engine_or_net nd.source ->
                  Hashtbl.replace hot node ();
                  Queue.push node queue
              | _ -> ())
          | _ -> ())
        (Callgraph.refs graph id)
    done;
    let global_types = Hashtbl.create 128 in
    List.iter
      (fun ((d : Callgraph.def), ty) -> Hashtbl.replace global_types d.id ty)
      (Callgraph.globals graph);
    (* The closure-taking scheduling entry points: each call files a
       one-shot closure, which costs a write barrier to store and to
       drop. A component that schedules per packet or per ACK registers
       its closure once ([Sim.action]) and schedules the index. The entry
       points delegating to one another are not findings. *)
    let oneshot_entries =
      [
        "Engine.Sim.schedule_at"; "Engine.Sim.schedule_after";
        "Engine.Sim.schedule_at_cls"; "Engine.Sim.schedule_after_cls";
        "Engine.Event_queue.add"; "Engine.Event_queue.add_cls";
      ]
    in
    List.iter
      (fun (d : Callgraph.def) ->
        if Hashtbl.mem hot d.id && not (List.mem d.id oneshot_entries) then
          List.iter
            (fun (target, line) ->
              match Callgraph.resolve graph ~from_def:d.id target with
              | Some entry when List.mem entry oneshot_entries ->
                  emit Rules.R14 ~file:d.source ~line
                    ~message:
                      ("hot-path " ^ d.id ^ " schedules a one-shot closure \
                        through " ^ entry
                     ^ " — a write barrier to store it and another to drop \
                        it, per call; register the closure once \
                        (Sim.action) and schedule its index \
                        (Sim.schedule_action_at/after)")
                    ~notes:[]
              | _ -> ())
            (Callgraph.refs graph d.id))
      defs;
    (* Syntactic arity of every def, so a total call that merely returns a
       stored closure (Event_queue.popped_action q) is not mistaken for a
       partial application — the types alone cannot tell [t -> unit -> unit]
       from [t -> (unit -> unit)], but the definition's parameter count
       can. *)
    let arity_tbl : (string, int) Hashtbl.t = Hashtbl.create 256 in
    let rec syn_arity (e : Typedtree.expression) =
      match e.exp_desc with
      | Texp_function { cases = [ c ]; _ } -> 1 + syn_arity c.c_rhs
      | Texp_function _ -> 1
      | _ -> 0
    in
    List.iter
      (fun ((d : Callgraph.def), body) ->
        Hashtbl.replace arity_tbl d.id (syn_arity body))
      (Callgraph.bodies graph);
    (* The def's own curried parameter chain is not a closure: walk through
       leading Texp_function nodes (multi-case [function] included). *)
    let rec top_chain (e : Typedtree.expression) acc =
      match e.exp_desc with
      | Texp_function { cases; _ } ->
          List.fold_left
            (fun acc (c : Typedtree.value Typedtree.case) ->
              top_chain c.c_rhs acc)
            (e :: acc) cases
      | _ -> acc
    in
    let free_vars ~unit (fn : Typedtree.expression) =
      let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      let used = ref [] in
      let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern
          -> unit =
       fun sub p ->
        List.iter
          (fun i -> Hashtbl.replace bound (Ident.unique_name i) ())
          (Typedtree.pat_bound_idents p);
        Tast_iterator.default_iterator.pat sub p
      in
      let expr sub (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (Path.Pident i, _, _) -> used := i :: !used
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
      in
      let it = { Tast_iterator.default_iterator with pat; expr } in
      it.expr it fn;
      List.filter
        (fun i ->
          let name = Ident.name i in
          (not (Hashtbl.mem bound (Ident.unique_name i)))
          && (not (Callgraph.is_toplevel_ident graph ~unit i))
          && (not (String.contains name '*'))
          && name <> "()")
        !used
      |> List.map Ident.name |> List.sort_uniq String.compare
    in
    List.iter
      (fun ((d : Callgraph.def), body) ->
        if Hashtbl.mem hot d.id then begin
          (* boxed-float return of the hot function itself *)
          (match Hashtbl.find_opt global_types d.id with
          | Some ty
            when type_head (arrow_result ty) = Some "float"
                 && (match Types.get_desc ty with
                    | Types.Tarrow _ -> true
                    | _ -> false)
                 && not (is_time_ml d.source) ->
              emit Rules.R14 ~file:d.source ~line:d.line
                ~message:
                  (d.id
                 ^ " is on the event hot path and returns float — every \
                    call boxes the result; return it via an out-parameter \
                    float array slot or keep the computation int-typed")
                ~notes:[]
          | _ -> ());
          let chain = top_chain body [] in
          let in_chain e = List.memq e chain in
          let expr sub (e : Typedtree.expression) =
            (match e.exp_desc with
            | Texp_apply (fn, args)
              when (not e.exp_loc.Location.loc_ghost)
                   && (match Types.get_desc e.exp_type with
                      | Types.Tarrow _ -> true
                      | _ -> false)
                   && (List.exists (fun (_, a) -> Option.is_none a) args
                      ||
                      match fn.exp_desc with
                      | Texp_ident (p, _, _) -> (
                          match
                            Callgraph.resolve graph ~from_def:d.id
                              (Callgraph.normalize p)
                          with
                          | Some node -> (
                              match Hashtbl.find_opt arity_tbl node with
                              | Some a -> a > 0 && List.length args < a
                              | None -> false)
                          | None -> false)
                      | _ -> false) ->
                emit Rules.R14 ~file:d.source ~line:(line_of_loc e.exp_loc)
                  ~message:
                    ("partial application inside hot-path " ^ d.id
                   ^ " allocates a closure per call; apply all arguments \
                      (or hoist the partial application out of the hot \
                      path)")
                  ~notes:[]
            | Texp_function _
              when (not (in_chain e)) && not e.exp_loc.Location.loc_ghost -> (
                match free_vars ~unit:d.unit_canonical e with
                | [] -> () (* no captures: statically allocated *)
                | vars ->
                    emit Rules.R14 ~file:d.source ~line:(line_of_loc e.exp_loc)
                      ~message:
                        (Printf.sprintf
                           "closure inside hot-path %s captures %s — one \
                            allocation per call; hoist it to creation time \
                            (cf. Net.Port's per-port actions) or pass the \
                            state as arguments"
                           d.id
                           (String.concat ", " vars))
                      ~notes:[])
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e
          in
          let it = { Tast_iterator.default_iterator with expr } in
          it.expr it body
        end)
      (Callgraph.bodies graph)
  end;

  (* ---- R15: lib/ exports without a user outside their unit and tests ---- *)
  if List.mem Rules.R15 rules then begin
    (* export id -> sources of the other units that reference it *)
    let users : (string, string list) Hashtbl.t = Hashtbl.create 1024 in
    List.iter
      (fun (d : Callgraph.def) ->
        List.iter
          (fun (target, _) ->
            let id =
              Option.value ~default:target
                (Callgraph.resolve graph ~from_def:d.id target)
            in
            let prev = Option.value ~default:[] (Hashtbl.find_opt users id) in
            if not (List.mem d.source prev) then
              Hashtbl.replace users id (d.source :: prev))
          (Callgraph.refs graph d.id))
      defs;
    let check (u : Cmt_loader.unit_info) mli line_text id line =
      let emit_r15 message =
        emit ~suppressible:false Rules.R15 ~file:mli ~line ~message ~notes:[]
      in
      let others =
        Option.value ~default:[] (Hashtbl.find_opt users id)
        |> List.filter (fun s -> not (String.equal s u.source))
      in
      match Rules.test_only_reason (line_text line) with
      | Some "" ->
          emit_r15
            (id
           ^ " carries a test-only annotation with no reason; say why the \
              export stays: (* dtlint: test-only: <reason> *)")
      | Some _ -> ()
      | None -> (
          match List.partition is_test_source others with
          | _, _ :: _ -> ()
          | [], [] ->
              emit_r15
                (id
               ^ " is exported but used only inside its module; drop it \
                  from the .mli (and delete it if nothing inside uses it \
                  either)")
          | tests, [] ->
              emit_r15
                (Printf.sprintf
                   "%s is exported but used only by tests (%s); delete it \
                    together with the test cases whose only subject it is, \
                    or keep it with (* dtlint: test-only: <reason> *) on \
                    this line"
                   id
                   (String.concat ", " (List.sort String.compare tests))))
    in
    List.iter
      (fun (u : Cmt_loader.unit_info) ->
        match (u.interface, after_lib (segments u.source)) with
        | Some { mli; signature }, Some _ ->
            let lines =
              lazy
                (match read_source mli with
                | Some s -> Array.of_list (String.split_on_char '\n' s)
                | None -> [||])
            in
            let line_text n =
              let a = Lazy.force lines in
              if n >= 1 && n <= Array.length a then a.(n - 1) else ""
            in
            let rec items prefix (sg : Typedtree.signature) =
              List.iter
                (fun (item : Typedtree.signature_item) ->
                  match item.sig_desc with
                  | Tsig_value vd ->
                      check u mli line_text
                        (prefix ^ "." ^ Ident.name vd.val_id)
                        (line_of_loc vd.val_loc)
                  | Tsig_module
                      { md_id = Some i; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
                      items (prefix ^ "." ^ Ident.name i) sg
                  | _ -> ())
                sg.sig_items
            in
            items u.canonical signature
        | _ -> ())
      units
  end;

  List.sort
    (fun (a : Rules.violation) (b : Rules.violation) ->
      match String.compare a.file b.file with
      | 0 -> (
          match Int.compare a.line b.line with
          | 0 -> String.compare (Rules.rule_id a.rule) (Rules.rule_id b.rule)
          | c -> c)
      | c -> c)
    !out

let lint_cmt_roots ?rules ?report_paths ?read_source ~roots () =
  lint_units ?rules ?report_paths ?read_source (Cmt_loader.load_tree ~roots)
