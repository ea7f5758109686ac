(** Loading dune-produced [.cmt] Typedtree artifacts for the typed pass.

    Dune compiles every module with [-bin-annot], leaving a [.cmt] per
    module (and a [.cmti] per interface) under
    [_build/default/<dir>/.<lib>.objs/byte/]. Each records the module's
    {e typed} AST plus the path of the source file it came from, which is
    what lets the typed rules report violations against real source
    locations and honour the per-line suppression comments.

    Module names are canonicalised from dune's mangled form
    ([Engine__Time]) to the dotted form users write ([Engine.Time]), so
    call-graph identifiers line up with {!Callgraph.normalize}d use-site
    paths no matter which spelling the source used. Executable modules
    are all mangled into one [Dune__exe] namespace, so theirs is
    qualified by the source directory instead: [lint/main.ml] is
    [lint.Main], [perfbench/main.ml] is [perfbench.Main]. *)

type interface = {
  mli : string;  (** source path, e.g. ["lib/engine/time.mli"] *)
  signature : Typedtree.signature;
}

type unit_info = {
  modname : string;  (** compiler module name, e.g. ["Engine__Time"] *)
  canonical : string;  (** dotted form, e.g. ["Engine.Time"] *)
  source : string;  (** source path as recorded by the compiler, e.g.
                        ["lib/engine/time.ml"] *)
  structure : Typedtree.structure;
  interface : interface option;
      (** the unit's [.mli], when it has one (read from the sibling
          [.cmti]) *)
}

val canonical_of_modname : string -> string
(** ["Engine__Time"] → ["Engine.Time"]; names without ["__"] unchanged. *)

val qualify : unit_info -> string -> string
(** A canonical use-site name in the scope of one unit: inside an
    executable's module, a sibling reference [Dune.exe.Model.x] in
    [bin/dtsim.ml] becomes [bin.Model.x], matching the sibling's canonical
    name; anything else is returned unchanged. *)

val load_file : string -> unit_info option
(** Read one [.cmt] (and its sibling [.cmti], if any). [None] when it is
    not an implementation (interfaces, partial trees), has no recorded
    source file, or the source is not an [.ml] file (dune's generated
    library-alias modules end in [.ml-gen] and carry no user code).
    Unreadable or wrong-magic files also yield [None] — a stale artifact
    must not crash the lint. *)

val load_tree : roots:string list -> unit_info list
(** Walk each root recursively (descending into dune's dot-prefixed
    [.objs] directories, skipping [.git]) and load every [.cmt] found.
    Units are deduplicated by source path and returned sorted by
    [canonical] (then source), so the result is independent of
    filesystem order. *)
