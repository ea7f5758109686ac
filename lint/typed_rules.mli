(** The typed whole-program pass: rules R11–R15 over [.cmt] Typedtrees.

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
      [Sim.step/run/schedule_at/schedule_after/schedule_action_at/
      schedule_action_after/cancel], [Timer.set]; [Port.send] and the
      port's registered actions [Port.finish_tx]/[deliver_head],
      [Queue_disc.enqueue/dequeue_exn], [Switch.receive]), a partial
      application, an environment-capturing closure, or a
      float-returning function is a per-event allocation and a
      violation. Closures without captures are statically allocated and
      stay legal. So is a reference to a closure-taking scheduling
      entry point ([Sim.schedule_at/after[_cls]],
      [Event_queue.add[_cls]]) from any hot function other than those
      entry points: a one-shot closure costs a write barrier to store
      and one to drop, so per-packet work registers its closure once
      ([Sim.action]) and schedules the index.
    - {b R15 — dead exports.} Every [val] in a [lib/*/*.mli] (nested
      module signatures included) needs a reference from a unit other
      than its own and the test units ([test/],
      [perfbench/test_perfbench.ml]). References are the call graph's
      edges over every loaded unit, module aliases resolved, so [bin],
      [bench], [examples], [perfbench] and the other [lib] modules all
      count. Reported at the [val] line: "used only inside its module"
      (drop it from the [.mli]) or "used only by tests" (delete it, or
      keep it with [(* dtlint: test-only: <reason> *)] on that line).
      The annotation is the only escape — [allow R15] is ignored — and
      one without a reason is itself a finding. *)

val rules : Rules.rule list
(** [R11; R12; R13; R14; R15]. *)

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
