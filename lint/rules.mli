(** dtlint — simulator-aware static analysis for the DT-DCTCP codebase.

    The simulator's headline results (describing-function loci, limit-cycle
    verdicts, figure reproduction) depend on bit-exact, deterministic runs.
    These rules catch the slips that silently break that property:

    - {b R1} no [Random.*] outside [lib/engine/rng.ml]: all stochasticity
      must flow through the seeded {!Engine.Rng} so runs are reproducible.
    - {b R2} no float [=] / [<>] / [==] / [!=]: timestamps and queue depths
      must use [Time]'s [( < )] / [( <= )] or epsilon comparisons.
    - {b R3} no polymorphic [compare] / [Stdlib.compare] / [Hashtbl.hash]:
      event ordering must use an explicit monomorphic comparator.
    - {b R4} no [print_string] / [print_endline] / [Printf.printf] /
      [Format.printf] inside [lib/]: output goes through [Logs] or
      [Obs.Trace] so headless benches stay clean.
    - {b R5} every [lib/**/*.ml] has a matching [.mli].
    - {b R6} no [assert false] or bare [failwith ""] / [invalid_arg ""] in
      the [lib/engine] and [lib/net] hot paths: failures must carry context.
    - {b R7} no wall-clock reads ([Sys.time], [Unix.gettimeofday],
      [Unix.time]) outside [lib/obs]: simulated time is {!Engine.Time}, and
      the only sanctioned wall-clock site is [Obs.Profile] — a stray read
      leaking into simulation logic would silently break determinism, the
      same hazard family as R1.
    - {b R8} no [Domain.*] / [Thread.*] / [Unix.fork] outside [lib/exp]:
      Exp.Runner is the only sanctioned parallelism site. Simulations are
      strictly single-domain programs — parallelism belongs between runs
      (the runner fans whole specs across domains), never inside one, where
      scheduling nondeterminism would break bit-reproducibility.
    - {b R9} no [Obj.magic] outside [lib/engine/]: the engine's pooled
      containers ({!Engine.Event_queue}'s event pool and
      {!Engine.Int_ring}) are the only audited sites a placeholder slot
      value may live in — today both fill spare slots with real values
      (a sentinel event, [min_int]) and need none; anywhere else
      [Obj.magic] defeats the type system.
    - {b R10} no [Rng.create] / [Rng.split] outside the stream-owning
      layers ([lib/engine], [lib/fault], [lib/workloads], [lib/exp]): every
      random stream must be derivable from a spec seed, so only the layers
      that receive seeds may mint streams. A transport or queue module
      minting its own stream would fork the seed tree invisibly — the
      faulted-run analogue of R1.

    Rules R1–R4 and R6–R10 are detected on the parsetree ({!lint_source}); R2
    is necessarily a syntactic heuristic (the parsetree is untyped): an
    equality is flagged when either operand is recognisably a float — a
    float literal, float arithmetic ([+.], [*.], ...), a [float] type
    annotation, or a call to a well-known float-returning function
    ([to_sec], [sqrt], [Float.*], ...).

    Rules R11–R15 are the {e typed} whole-program pass: they operate on
    dune-produced [.cmt] Typedtree artifacts (see {!Typed_rules}) and can
    therefore follow call chains across modules and read inferred types:

    - {b R11} transitive nondeterminism taint: no call path from
      [Random.*], [Hashtbl.hash], polymorphic [compare] or a wall-clock
      read into [lib/engine|net|tcp|dctcp|fault|workloads], wrappers
      included — the whole-program closure of R1/R3/R7.
    - {b R12} static data-race detection: top-level mutable state ([ref],
      [array], [Hashtbl.t], [Buffer.t], records with [mutable] fields)
      reachable from a [Domain.spawn]-ing function must be [Atomic.t] or
      carry a justified ownership annotation.
    - {b R13} time-unit hygiene: no [:> int] coercion of an
      {!Engine.Time.t} instant or an [Engine.Time.span] outside
      [lib/engine]. Both are private ints, so the coercion compiles, but
      it strips the unit; [Time.to_int_ns] and [Time.span_to_int_ns] are
      the greppable escapes.
    - {b R14} hot-path allocation: no partial applications, capturing
      closures or boxed-float returns in functions reachable from the
      event-loop entry points of [lib/engine] / [lib/net].
    - {b R15} no dead exports: every [val] in a [lib/*/*.mli] needs a
      reference from some unit other than its own and the tests ([test/],
      [perfbench/test_perfbench.ml]); [bin], [bench], [examples],
      [perfbench] and the other [lib] modules all count as users. An
      export used only inside its module is dropped from the [.mli]; one
      used only by tests is deleted, or kept with
      [(* dtlint: test-only: <reason> *)] on its [val] line — the rule's
      only escape ([allow R15] does not apply, and an annotation without
      a reason is itself a finding).

    Any line-based rule but R15 can be suppressed for one line with a
    trailing comment: [(* dtlint: allow R2 *)] (several ids may be
    listed, or [all]). *)

type rule =
  | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10
  | R11 | R12 | R13 | R14 | R15

type violation = {
  rule : rule;
  file : string;  (** path as given on the command line *)
  line : int;  (** 1-based line of the offending expression *)
  message : string;  (** human-readable explanation, no location prefix *)
  notes : string list;
      (** extra context lines (the typed rules put the call-chain trace
          here); empty for the syntactic rules *)
}

exception Parse_error of string * int * string
(** [(file, line, message)] — the file is not syntactically valid OCaml. *)

val all_rules : rule list
(** Every rule, R1–R15, in order. *)

val syntactic_rules : rule list
(** R1–R10: detected on the parsetree, no build artifacts needed. *)

val typed_rules : rule list
(** R11–R15: need [.cmt] Typedtree artifacts (the [--typed] pass). *)

val rule_id : rule -> string
val rule_of_id : string -> rule option
val rule_doc : rule -> string

type suppressions
(** Per-line [(* dtlint: allow Rn *)] table for one source file. *)

val suppressions : string -> suppressions
(** Parse the suppression comments out of a source text. *)

val suppressed : suppressions -> rule -> line:int -> bool

val test_only_reason : string -> string option
(** R15's escape on one source line, [(* dtlint: test-only: <reason> *)]:
    [Some reason] (trimmed; [""] when no reason is given), [None] when the
    line carries no such annotation. *)

val lint_source : ?rules:rule list -> filename:string -> string -> violation list
(** Lint an implementation ([.ml]) given as a string. [filename] scopes the
    rules (R1's rng exemption, R4's [lib/] scope, R6's hot-path scope) and
    is reported in violations. Only expression-level rules apply; R5 is
    checked by {!check_mli}. Violations are sorted by line. Raises
    {!Parse_error} on syntax errors. *)

val check_mli : ml_file:string -> mli_exists:bool -> violation option
(** R5: [Some violation] when [ml_file] lives under [lib/] and has no
    matching interface. *)

val lint_file : ?rules:rule list -> string -> violation list
(** Lint one file from disk. [.ml] files get the expression rules plus R5
    (probing for the sibling [.mli]); other files yield []. *)

val lint_paths : ?rules:rule list -> string list -> violation list
(** Walk files and/or directories (recursively, skipping [_build], [.git]
    and other [_]/[.]-prefixed entries) and lint every [.ml] found, in
    deterministic (sorted) order. *)

val pp_violation : Format.formatter -> violation -> unit
(** [file:line: [Rn] message] — one line, suitable for compiler-style
    output (and for the CI problem matcher). Notes are omitted. *)

val pp_violation_full : Format.formatter -> violation -> unit
(** Like {!pp_violation} followed by one indented line per note — the
    call-chain trace for the typed rules. *)
