(** The typed whole-program pass: rules R11–R14 over [.cmt] Typedtrees.

    Where the syntactic rules (R1–R10) look at one parsetree at a time,
    these rules see the {e whole program}: a cross-module call graph
    ({!Callgraph}) with an effect classification per function
    ({!Effects}). That closes the laundering gap — a helper that wraps
    [Random.int] taints every caller, across module and library
    boundaries.

    - {b R11 — transitive determinism taint.} Any call path from
      [Random.*], [Hashtbl.hash], polymorphic [compare], or a wall-clock
      read into [lib/engine|net|tcp|dctcp|fault|workloads] is a
      violation. Only the {e entry point} is reported (the first tainted
      function inside the protected tree), with the full call chain in
      the violation's notes. [lib/engine/rng.ml] and [lib/obs] are
      absorbing barriers, matching R1/R7's sanctioned sites.
    - {b R12 — static data-race detection.} A module-level mutable value
      ([ref], [array], [bytes], [Hashtbl.t], [Buffer.t], [Queue.t],
      [Stack.t], or a record type with [mutable] fields, transitively)
      reachable from a function that spawns domains (e.g.
      [Exp.Runner.run]'s per-domain closures) is a violation unless it is
      [Atomic.t]. Reported at the value's definition, so the ownership
      annotation [(* dtlint: allow R12 *)] + justification lives next to
      the state it blesses. The reachability is an over-approximation: it
      includes code the spawning function runs before spawning — by
      design, since refactors move code into the closure silently.
    - {b R13 — time-unit hygiene.} Outside [lib/engine/time.ml], an
      [Engine.Time.t] instant must not meet raw [int64] arithmetic:
      coercing [Time.t :> int64], or feeding [Time.to_ns] straight into
      an [Int64] operation, is a violation ([Time.span]s are plain
      [int64] and stay fair game — the paper's queue dynamics live on
      spans, the unit bug lives on instants).
    - {b R14 — hot-path allocation.} In functions reachable from the
      event-loop entry points ([Engine.Event_queue]/[Int_ring] and
      [Net.Packet]/[Ecmp] whole modules;
      [Sim.step/run/schedule_at/schedule_after/cancel];
      [Port.send], [Queue_disc.enqueue/dequeue/dequeue_exn],
      [Switch.receive]), a partial application, an
      environment-capturing closure, or a float-returning function is a
      per-event allocation and a violation (PR 4's budget is ~13 minor
      words/event). Closures without captures are statically allocated
      and stay legal. *)

val rules : Rules.rule list
(** [R11; R12; R13; R14]. *)

val lint_units :
  ?rules:Rules.rule list ->
  ?report_paths:string list ->
  ?read_source:(string -> string option) ->
  Cmt_loader.unit_info list ->
  Rules.violation list
(** Run the typed rules over loaded units. The call graph always spans
    {e all} given units (a bench-side wrapper must still taint a lib
    caller), while [report_paths] — when non-empty — restricts which
    files violations may be {e reported} against. [read_source] is how
    suppression comments are found (defaults to reading the recorded
    source path from disk; tests inject a tmpdir-relative reader).
    Violations are sorted by file, line, rule. *)

val lint_cmt_roots :
  ?rules:Rules.rule list ->
  ?report_paths:string list ->
  ?read_source:(string -> string option) ->
  roots:string list ->
  unit ->
  Rules.violation list
(** [lint_units] over every [.cmt] found under [roots]
    (see {!Cmt_loader.load_tree}). *)
