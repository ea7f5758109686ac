type interface = { mli : string; signature : Typedtree.signature }

type unit_info = {
  modname : string;
  canonical : string;
  source : string;
  structure : Typedtree.structure;
  interface : interface option;
}

(* Split on the literal "__" dune uses to mangle wrapped-library module
   names; single underscores are ordinary identifier characters. *)
let canonical_of_modname m =
  let n = String.length m in
  let parts = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    if m.[!i] = '_' && m.[!i + 1] = '_' then begin
      parts := String.sub m !start (!i - !start) :: !parts;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  parts := String.sub m !start (n - !start) :: !parts;
  List.rev !parts |> List.filter (fun s -> s <> "") |> String.concat "."

let strip_prefix ~prefix s =
  let p = String.length prefix in
  if String.length s > p && String.equal (String.sub s 0 p) prefix then
    Some (String.sub s p (String.length s - p))
  else None

(* Every executable module is mangled into dune's one [Dune__exe]
   namespace; its source directory tells same-named ones apart. *)
let exe_dir ~modname ~source =
  match strip_prefix ~prefix:"Dune__exe__" modname with
  | Some _ when Filename.dirname source <> "." -> Some (Filename.dirname source)
  | _ -> None

(* [Dune.exe.X...] (a sibling reference, or the unit's own name) becomes
   [<dir>.X...]. *)
let qualify_exe dir name =
  match strip_prefix ~prefix:"Dune.exe." name with
  | Some rest -> dir ^ "." ^ rest
  | None -> name

let qualify u name =
  match exe_dir ~modname:u.modname ~source:u.source with
  | Some dir -> qualify_exe dir name
  | None -> name

let canonical_of_unit ~modname ~source =
  let canonical = canonical_of_modname modname in
  match exe_dir ~modname ~source with
  | Some dir -> qualify_exe dir canonical
  | None -> canonical

let read_interface path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Interface signature, Some mli
        when Filename.check_suffix mli ".mli" ->
          Some { mli; signature }
      | _ -> None)

let load_file path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation structure, Some source
        when Filename.check_suffix source ".ml" ->
          let modname = cmt.Cmt_format.cmt_modname in
          let cmti = Filename.remove_extension path ^ ".cmti" in
          Some
            {
              modname;
              canonical = canonical_of_unit ~modname ~source;
              source;
              structure;
              interface =
                (if Sys.file_exists cmti then read_interface cmti else None);
            }
      | _ -> None)

(* Unlike the source walker in Rules, this one must descend into
   dot-prefixed directories: dune hides the .cmt artifacts under
   .<lib>.objs/byte/. Only .git (huge, never holds cmts) is skipped. *)
let rec walk path acc =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc
  | true ->
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
             if name = ".git" then acc
             else walk (Filename.concat path name) acc)
           acc
  | false ->
      if Filename.check_suffix path ".cmt" then path :: acc else acc

(* Keyed by source path, not module name: every executable's modules are
   [Dune__exe__*], so lint/main.ml and perfbench/main.ml both compile to
   [Dune__exe__Main]. *)
let load_tree ~roots =
  let files =
    List.fold_left (fun acc r -> walk r acc) [] roots
    |> List.sort_uniq String.compare
  in
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc f ->
      match load_file f with
      | Some u when not (Hashtbl.mem seen u.source) ->
          Hashtbl.add seen u.source ();
          u :: acc
      | _ -> acc)
    [] files
  |> List.sort (fun a b ->
         match String.compare a.canonical b.canonical with
         | 0 -> String.compare a.source b.source
         | c -> c)
