(* Tests for the typed whole-program lint pass (lint/typed_rules.ml).

   Fixture programs are written into a temp directory shaped like the
   real tree (lib/net/..., vendor/...), compiled with ocamlc -bin-annot
   from that directory (so the recorded source paths are build-relative,
   exactly like dune's), loaded through Cmt_loader and linted. Each rule
   gets a violating, a clean, and a suppressed fixture; R11 additionally
   carries the delta proof that the syntactic pass misses a laundered
   Random.int, and a qcheck property pins the reports (chains included)
   under module reordering. *)

module R = Dtlint.Rules
module TR = Dtlint.Typed_rules
module CL = Dtlint.Cmt_loader

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- fixture harness --------------------------------------------------- *)

let mkdtemp () =
  let f = Filename.temp_file "dtlint_fixture" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let write root rel content =
  let rec mkdirs d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  let path = Filename.concat root rel in
  mkdirs (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc content)

(* Compile fixtures in dependency order, cwd = fixture root, so each
   .cmt's cmt_sourcefile is the relative path we passed — the same shape
   dune records. *)
let compile ?(outputs = []) root rels =
  let incs = List.sort_uniq String.compare (List.map Filename.dirname rels) in
  let inc_flags =
    String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) incs)
  in
  List.iter
    (fun rel ->
      (* [-o dir/Prefix__Mod.cmo] names the unit the way dune does, while
         the recorded source stays [rel]. *)
      let out =
        match List.assoc_opt rel outputs with
        | Some o -> "-o " ^ Filename.quote o
        | None -> ""
      in
      let cmd =
        Printf.sprintf "cd %s && ocamlc -bin-annot -w -a %s %s -c %s"
          (Filename.quote root) inc_flags out (Filename.quote rel)
      in
      if Sys.command cmd <> 0 then
        Alcotest.failf "fixture failed to compile: %s" rel)
    rels

let reader root file =
  let p = Filename.concat root file in
  match In_channel.with_open_text p In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let lint_root ?rules root =
  TR.lint_units ?rules ~read_source:(reader root) (CL.load_tree ~roots:[ root ])

let render (v : R.violation) =
  Printf.sprintf "%s %s:%d" (R.rule_id v.rule) v.file v.line

let check_renders msg expected violations =
  Alcotest.(check (list string)) msg expected (List.map render violations)

(* --- R11: transitive nondeterminism taint ------------------------------ *)

(* The laundering scenario R1 cannot see: the Random.int sits in
   vendor/util.ml, outside the protected tree; lib/net only ever calls
   the innocent-looking wrapper. sched2.ml checks entry-point-only
   reporting (its taint arrives via the already-reported mid.ml, so it
   must stay silent), sched_ok.ml checks suppression, clean.ml checks a
   pure module stays pure. *)
let sched_src = "let choose n = Util.pick n\n"

let s11 =
  lazy
    (let root = mkdtemp () in
     write root "vendor/util.ml" "let pick n = Random.int n\n";
     write root "lib/net/mid.ml" "let via n = Util.pick n\n";
     write root "lib/net/sched.ml" sched_src;
     write root "lib/net/sched2.ml" "let pick2 n = Mid.via n\n";
     write root "lib/net/sched_ok.ml"
       "let choose n = Util.pick n (* dtlint: allow R11 *)\n";
     write root "lib/net/clean.ml" "let double x = 2 * x\n";
     compile root
       [
         "vendor/util.ml"; "lib/net/mid.ml"; "lib/net/sched.ml";
         "lib/net/sched2.ml"; "lib/net/sched_ok.ml"; "lib/net/clean.ml";
       ];
     root)

let test_r11_delta_vs_syntactic () =
  (* The syntactic pass, given the protected file, finds nothing... *)
  check_renders "R1-R10 see no Random in sched.ml" []
    (R.lint_source ~filename:"lib/net/sched.ml" sched_src);
  (* ...the typed pass convicts it (and mid.ml), and only the entry
     points: sched2.ml's taint flows through protected mid.ml. *)
  let vs = lint_root (Lazy.force s11) in
  check_renders "laundered Random reaches lib/net"
    [ "R11 lib/net/mid.ml:1"; "R11 lib/net/sched.ml:1" ]
    vs

let test_r11_call_chain () =
  let vs = lint_root (Lazy.force s11) in
  let v =
    List.find (fun (v : R.violation) -> v.file = "lib/net/sched.ml") vs
  in
  Alcotest.(check bool) "message names the primitive" true
    (contains ~sub:"Random.int" v.message);
  Alcotest.(check bool) "chain passes through the wrapper" true
    (List.exists (contains ~sub:"Util.pick (vendor/util.ml:1)") v.notes);
  Alcotest.(check bool) "chain ends at the primitive" true
    (List.exists (contains ~sub:"Random.int") v.notes)

(* --- R12: mutable globals reachable from domain spawns ----------------- *)

let s12 =
  lazy
    (let root = mkdtemp () in
     (* the planted top-level ref, reached from a Domain.spawn closure *)
     write root "lib/exp/driver.ml"
       "let hits = ref 0\n\
        let bump () = incr hits\n\
        let launch () = Domain.spawn (fun () -> bump ())\n";
     (* Atomic.t is the sanctioned cross-domain cell *)
     write root "lib/exp/driver_ok.ml"
       "let hits = Atomic.make 0\n\
        let bump () = Atomic.incr hits\n\
        let launch () = Domain.spawn (fun () -> bump ())\n";
     write root "lib/exp/driver_sup.ml"
       "let hits = ref 0 (* dtlint: allow R12 *)\n\
        let bump () = incr hits\n\
        let launch () = Domain.spawn (fun () -> bump ())\n";
     (* mutable, but no spawner ever reaches it *)
     write root "lib/exp/lonely.ml" "let count = ref 0\nlet tick () = incr count\n";
     compile root
       [
         "lib/exp/driver.ml"; "lib/exp/driver_ok.ml"; "lib/exp/driver_sup.ml";
         "lib/exp/lonely.ml";
       ];
     root)

let test_r12_planted_ref () =
  let vs = lint_root (Lazy.force s12) in
  check_renders "only the raw ref behind a spawn is flagged"
    [ "R12 lib/exp/driver.ml:1" ] vs;
  let v = List.hd vs in
  Alcotest.(check bool) "chain starts at the spawner" true
    (List.exists (contains ~sub:"Driver.launch") v.notes);
  Alcotest.(check bool) "chain ends at the touched global" true
    (List.exists (contains ~sub:"touches Driver.hits") v.notes)

(* --- R13: unit-stripping coercions of Time values ------------------------ *)

let s13 =
  lazy
    (let root = mkdtemp () in
     (* A stand-in Engine.Time: the double-underscore filename gives the
        module the same canonical name dune's mangling produces. *)
     write root "lib/engine/engine__Time.mli"
       "type t = private int\n\
        type span = private int\n\
        val of_int_ns : int -> t\n\
        val to_int_ns : t -> int\n\
        val span_to_int_ns : span -> int\n\
        val diff : t -> t -> span\n";
     write root "lib/engine/engine__Time.ml"
       "type t = int\n\
        type span = int\n\
        let of_int_ns n = n\n\
        let to_int_ns t = t\n\
        let span_to_int_ns d = d\n\
        let diff a b = a - b\n";
     (* Convicted: an instant, a span from a call, a span from a record
        field, a span through a module alias, an annotated source. Line 6
        is suppressed. *)
     write root "lib/net/meter.ml"
       "let instant (a : Engine__Time.t) = (a :> int)\n\
        let gap a b = (Engine__Time.diff a b :> int)\n\
        type r = { d : Engine__Time.span }\n\
        let field r = (r.d :> int)\n\
        module Time = Engine__Time\n\
        let sup (a : Time.t) = (a :> int) (* dtlint: allow R13 *)\n\
        let aliased (d : Time.span) = (d :> int)\n\
        let annotated d = (d : Engine__Time.span :> int)\n";
     (* Acquitted: the engine owns the representation; the named
        conversions; another module's private int. *)
     write root "lib/engine/wheel.ml"
       "let key (t : Engine__Time.t) = (t :> int)\n";
     write root "lib/net/clean.ml"
       "let instant a = Engine__Time.to_int_ns a\n\
        let gap a b = Engine__Time.span_to_int_ns (Engine__Time.diff a b)\n\
        module Id : sig type t = private int val make : int -> t end = struct\n\
       \  type t = int\n\
       \  let make n = n\n\
        end\n\
        let id (i : Id.t) = (i :> int)\n\
        let seed (s : int64) = Int64.add s 5L\n";
     compile root
       [
         "lib/engine/engine__Time.mli"; "lib/engine/engine__Time.ml";
         "lib/net/meter.ml"; "lib/engine/wheel.ml"; "lib/net/clean.ml";
       ];
     root)

let test_r13_instant_hygiene () =
  (* R13 only: the stand-in Time.mli exports values no fixture unit
     uses, which is R15's business, not this test's. *)
  let vs = lint_root ~rules:[ R.R13 ] (Lazy.force s13) in
  check_renders
    "instant, call, field, alias and annotated coercions flagged; the \
     suppressed line stays legal"
    [
      "R13 lib/net/meter.ml:1"; "R13 lib/net/meter.ml:2";
      "R13 lib/net/meter.ml:4"; "R13 lib/net/meter.ml:7";
      "R13 lib/net/meter.ml:8";
    ]
    (List.filter (fun (v : R.violation) -> v.file = "lib/net/meter.ml") vs)

let test_r13_acquits () =
  let vs = lint_root ~rules:[ R.R13 ] (Lazy.force s13) in
  check_renders
    "coercions inside lib/engine, the named conversions and other \
     private ints stay legal"
    []
    (List.filter (fun (v : R.violation) -> v.file <> "lib/net/meter.ml") vs)

(* --- R14: per-call allocation on the event hot path -------------------- *)

let s14 =
  lazy
    (let root = mkdtemp () in
     (* lib/engine/event_queue.ml is a whole-module hot root *)
     write root "lib/engine/event_queue.ml"
       "let push x l = x :: l\n\
        let use_partial l = List.map (push 1) l\n\
        let use_closure n l = List.map (fun x -> x + n) l\n\
        let ok_closure l = List.map (fun x -> x + 1) l\n\
        let to_float x = float_of_int x\n\
        let sup n l = List.map (fun x -> x * n) l (* dtlint: allow R14 *)\n\
        let local_capture n l =\n\
       \  let add x = x + n in\n\
       \  List.map add l\n\
        let local_plain l =\n\
       \  let inc x = x + 1 in\n\
       \  let rec len acc = function [] -> acc | _ :: r -> len (acc + 1) r in\n\
       \  len 0 (List.map inc l)\n";
     (* Lines 7-13: a function written [let add x = ... in] is a closure
        too, though its node has a ghost location. The capturing one is
        reported at its binding's line; a capture-free one, and a local
        [let rec] that only names itself, stay legal. *)
     (* same shape, but nothing hot reaches it *)
     write root "lib/net/coldpath.ml" "let mk n l = List.map (fun x -> x + n) l\n";
     (* wheel-shaped module: lib/engine/int_ring.ml and lib/net/packet.ml
        are whole-module hot roots since the timing-wheel/SoA PR. The
        planted [weight] returns a boxed float out of a cascade-like
        bucket walk — exactly the regression the rule must catch in the
        real wheel's cascade. *)
     write root "lib/engine/int_ring.ml"
       "let cascade_weight buckets b = float_of_int (Array.length buckets * b)\n\
        let ok_int buckets b = Array.length buckets * b\n";
     write root "lib/net/packet.ml"
       "let free stack top p = stack.(top) <- p\n\
        let boxed_occupancy size live = float_of_int size *. float_of_int live\n";
     (* lib/net/ecmp.ml joined the hot set with the fat-tree PR: every
        ECMP port selection runs under Switch.receive. The planted
        [select] builds a fresh capturing closure per packet. *)
     write root "lib/net/ecmp.ml"
       "let select ports salt flow = Array.map (fun p -> p lxor (salt + flow)) ports\n\
        let ok_select ports idx = ports.(idx)\n";
     compile root
       [
         "lib/engine/event_queue.ml"; "lib/net/coldpath.ml";
         "lib/engine/int_ring.ml"; "lib/net/packet.ml"; "lib/net/ecmp.ml";
       ];
     root)

let test_r14_hot_path_allocs () =
  let vs = lint_root (Lazy.force s14) in
  check_renders
    "partial application, capturing closure (lambda or local function) \
     and float return flagged; capture-free closure, suppressed line and \
     cold module stay legal"
    [
      "R14 lib/engine/event_queue.ml:2"; "R14 lib/engine/event_queue.ml:3";
      "R14 lib/engine/event_queue.ml:5"; "R14 lib/engine/event_queue.ml:8";
      "R14 lib/engine/int_ring.ml:1";
      "R14 lib/net/ecmp.ml:1"; "R14 lib/net/packet.ml:2";
    ]
    vs;
  let capture =
    List.find
      (fun (v : R.violation) ->
        v.file = "lib/engine/event_queue.ml" && v.line = 3)
      vs
  in
  Alcotest.(check bool) "capture message names the variable" true
    (contains ~sub:"captures n" capture.message);
  let local =
    List.find
      (fun (v : R.violation) ->
        v.file = "lib/engine/event_queue.ml" && v.line = 8)
      vs
  in
  Alcotest.(check bool) "local function's message names the variable" true
    (contains ~sub:"local_capture captures n" local.message)

(* R14's scheduling check: on the hot path (here a port's per-packet
   actions and [Port.send]; the units are named the way dune names a
   wrapped library's modules, so the roots match by name) a call to a closure-taking scheduling entry
   point is a finding, whether written through a module alias or the
   full path. Scheduling a registered action, the entry points
   delegating to one another, a suppressed line and a cold module (a
   flow start under lib/tcp) stay legal. *)
let s14_oneshot =
  lazy
    (let root = mkdtemp () in
     write root "lib/engine/engine__Sim.ml"
       "let schedule_at_cls q f = ignore f; q\n\
        let schedule_at q f = schedule_at_cls q f\n\
        let schedule_after q f = schedule_at q f\n\
        let schedule_action_at q a = q + a\n";
     write root "lib/net/net__Port.ml"
       "module Sim = Engine__Sim\n\
        let finish_tx q = Sim.schedule_after q (fun () -> ())\n\
        let deliver_head q a = Sim.schedule_action_at q a\n\
        let late q = Sim.schedule_at q ignore (* dtlint: allow R14 *)\n\
        let send q a = ignore (Engine__Sim.schedule_at_cls q ignore); ignore (late q); deliver_head q a\n";
     write root "lib/tcp/flow.ml" "let start_at q = Engine__Sim.schedule_at q ignore\n";
     compile root
       [ "lib/engine/engine__Sim.ml"; "lib/net/net__Port.ml"; "lib/tcp/flow.ml" ];
     root)

let test_r14_oneshot_scheduling () =
  let vs = lint_root ~rules:[ R.R14 ] (Lazy.force s14_oneshot) in
  check_renders
    "one-shot scheduling from a port action and from Port.send flagged"
    [ "R14 lib/net/net__Port.ml:2"; "R14 lib/net/net__Port.ml:5" ]
    vs;
  Alcotest.(check (list string))
    "the message names the entry point"
    [ "Engine.Sim.schedule_after"; "Engine.Sim.schedule_at_cls" ]
    (List.map
       (fun (v : R.violation) ->
         List.find
           (fun e -> contains ~sub:("through " ^ e ^ " ") v.message)
           [
             "Engine.Sim.schedule_after"; "Engine.Sim.schedule_at_cls";
             "Engine.Sim.schedule_at";
           ])
       vs)

(* --- R15: lib/ exports need a user outside their unit and the tests ----- *)

(* A lib/ module with one export per verdict, its users spread over a
   test unit, a bin unit and its own body. Each user is compiled under
   its real directory, so the test/bin split is the same path test the
   rule applies to the real tree. *)
let s15 =
  lazy
    (let root = mkdtemp () in
     write root "lib/stats/agg.mli"
       "val used_by_bin : int -> int
        val test_only : int -> int
        val helper : int -> int
        val dead : int
        val kept : int -> int (* dtlint: test-only: oracle for the tests *)
        val bare : int -> int (* dtlint: test-only *)
        val escaped : int -> int (* dtlint: allow R15 *)
        module Sub : sig
       \  val nested_used : int
       \  val nested_dead : int
        end
";
     write root "lib/stats/agg.ml"
       "let helper x = x + 1
        let used_by_bin x = helper x
        let test_only x = 2 * x
        let dead = 0
        let kept x = x
        let bare x = x
        let escaped x = x
        module Sub = struct
       \  let nested_used = 1
       \  let nested_dead = 2
        end
";
     write root "bin/tool.ml"
       "let main () = Agg.used_by_bin 1 + Agg.Sub.nested_used
";
     write root "test/test_agg.ml"
       "let check () = Agg.test_only 1 + Agg.kept 1 + Agg.bare 1
";
     compile root
       [ "lib/stats/agg.mli"; "lib/stats/agg.ml"; "bin/tool.ml";
         "test/test_agg.ml" ];
     root)

let r15_findings () =
  lint_root ~rules:[ R.R15 ] (Lazy.force s15)

let test_r15_convicts () =
  let vs = r15_findings () in
  check_renders
    "test-only, own-unit-only, unused, reasonless annotation and an allow \
     comment are all findings"
    [
      "R15 lib/stats/agg.mli:2"; "R15 lib/stats/agg.mli:3";
      "R15 lib/stats/agg.mli:4"; "R15 lib/stats/agg.mli:6";
      "R15 lib/stats/agg.mli:7"; "R15 lib/stats/agg.mli:10";
    ]
    vs;
  let msg line =
    (List.find (fun (v : R.violation) -> v.line = line) vs).message
  in
  Alcotest.(check bool) "test-only message names the test unit" true
    (contains ~sub:"used only by tests (test/test_agg.ml)" (msg 2));
  Alcotest.(check bool) "own-unit message says to drop it from the .mli"
    true
    (contains ~sub:"used only inside its module" (msg 3));
  Alcotest.(check bool) "unused export gets the same advice" true
    (contains ~sub:"used only inside its module" (msg 4));
  Alcotest.(check bool) "a reasonless annotation is its own finding" true
    (contains ~sub:"no reason" (msg 6));
  Alcotest.(check bool) "nested module exports are named in full" true
    (contains ~sub:"Agg.Sub.nested_dead" (msg 10))

let test_r15_acquits () =
  let lines =
    List.map (fun (v : R.violation) -> v.line) (r15_findings ())
  in
  Alcotest.(check bool) "used from bin/" false (List.mem 1 lines);
  Alcotest.(check bool) "annotated with a reason" false (List.mem 5 lines);
  Alcotest.(check bool) "nested export used from bin/" false
    (List.mem 9 lines)

let test_r15_counts_every_tool_dir () =
  (* The same test-only export, then a user from each non-test tree. *)
  List.iter
    (fun dir ->
      let root = mkdtemp () in
      write root "lib/net/probe.mli" "val reading : int
";
      write root "lib/net/probe.ml" "let reading = 3
";
      write root "test/test_probe.ml" "let x = Probe.reading
";
      write root (dir ^ "/user.ml") "let y = Probe.reading
";
      compile root
        [ "lib/net/probe.mli"; "lib/net/probe.ml"; "test/test_probe.ml";
          dir ^ "/user.ml" ];
      check_renders (dir ^ " counts as a user") []
        (lint_root ~rules:[ R.R15 ] root))
    [ "bin"; "bench"; "examples"; "perfbench" ];
  (* perfbench's own test unit does not. *)
  let root = mkdtemp () in
  write root "lib/net/probe.mli" "val reading : int
";
  write root "lib/net/probe.ml" "let reading = 3
";
  write root "perfbench/test_perfbench.ml" "let x = Probe.reading
";
  compile root
    [ "lib/net/probe.mli"; "lib/net/probe.ml"; "perfbench/test_perfbench.ml" ];
  check_renders "perfbench/test_perfbench.ml is a test unit"
    [ "R15 lib/net/probe.mli:1" ]
    (lint_root ~rules:[ R.R15 ] root)

let test_r15_follows_module_aliases () =
  (* [module P = Probe] and [let module P = Probe in] both keep the
     alias in use-site paths; the export is still used. *)
  let root = mkdtemp () in
  write root "lib/net/probe.mli" "val a : int
val b : int
";
  write root "lib/net/probe.ml" "let a = 1
let b = 2
";
  write root "bin/user.ml"
    "module P = Probe
let x = P.a
let y = let module Q = Probe in Q.b
";
  compile root [ "lib/net/probe.mli"; "lib/net/probe.ml"; "bin/user.ml" ];
  check_renders "aliases resolve to the export" []
    (lint_root ~rules:[ R.R15 ] root)

(* The census of R15's escape counts annotated lib/ exports that give a
   reason, nested ones included; a bare annotation (an R15 finding of its
   own) and an annotation outside lib/ do not count. *)
let test_test_only_census () =
  let root = mkdtemp () in
  write root "lib/net/probe.mli"
    "val plain : int
val kept : int (* dtlint: test-only: leak checks *)
val bare : int (* dtlint: test-only *)
module Sub : sig
  val inner : int (* dtlint: test-only: oracle *)
end
";
  write root "lib/net/probe.ml"
    "let plain = 1
let kept = 2
let bare = 3
module Sub = struct let inner = 4 end
";
  write root "bin/tool.mli" "val run : int (* dtlint: test-only: not lib *)
";
  write root "bin/tool.ml" "let run = Probe.plain
";
  compile root
    [ "lib/net/probe.mli"; "lib/net/probe.ml"; "bin/tool.mli"; "bin/tool.ml" ];
  Alcotest.(check int) "two annotated lib/ exports with a reason" 2
    (TR.test_only_exports ~read_source:(reader root)
       (CL.load_tree ~roots:[ root ]))

(* --- same-named executables in two directories -------------------------- *)

(* Every executable module is mangled into dune's one [Dune__exe]
   namespace, so lint/main.ml and perfbench/main.ml both compile to
   [Dune__exe__Main]; the fixture's bench/main.ml stands for any second
   directory. Each carries its own R12 violation (a ref behind a
   Domain.spawn); both must be reported, so neither unit may shadow the
   other on load or in the call graph. *)
let test_same_named_executables () =
  let root = mkdtemp () in
  let main = "let hits = ref 0
let run () = Domain.spawn (fun () -> incr hits)
" in
  write root "bench/main.ml" main;
  write root "perfbench/main.ml" ("
" ^ main);
  compile
    ~outputs:
      [
        ("bench/main.ml", "bench/dune__exe__Main.cmo");
        ("perfbench/main.ml", "perfbench/dune__exe__Main.cmo");
      ]
    root [ "bench/main.ml"; "perfbench/main.ml" ];
  let units = CL.load_tree ~roots:[ root ] in
  Alcotest.(check (list string))
    "both units load, under directory-qualified names"
    [ "bench.Main"; "perfbench.Main" ]
    (List.map (fun (u : CL.unit_info) -> u.canonical) units);
  check_renders "one R12 per executable"
    [ "R12 bench/main.ml:1"; "R12 perfbench/main.ml:2" ]
    (lint_root ~rules:[ R.R12 ] root)

(* --- determinism: reports are stable under module reordering ----------- *)

let render_full (v : R.violation) =
  String.concat " | " (render v :: v.message :: v.notes)

let test_reorder_stability =
  let prop units =
    let root = Lazy.force s11 in
    let baseline =
      List.map render_full (lint_root root)
    in
    let shuffled =
      TR.lint_units ~read_source:(reader root) units |> List.map render_full
    in
    shuffled = baseline
  in
  QCheck.Test.make ~count:30 ~name:"taint reports stable under module reordering"
    (QCheck.make
       (QCheck.Gen.shuffle_l (CL.load_tree ~roots:[ Lazy.force s11 ])))
    prop

let suites =
  [
    ( "typed_lint",
      [
        Alcotest.test_case "R11 delta vs syntactic pass" `Quick
          test_r11_delta_vs_syntactic;
        Alcotest.test_case "R11 call chain" `Quick test_r11_call_chain;
        Alcotest.test_case "R12 planted ref behind Domain.spawn" `Quick
          test_r12_planted_ref;
        Alcotest.test_case "R13 instant hygiene" `Quick test_r13_instant_hygiene;
        Alcotest.test_case "R13 acquitting fixtures" `Quick test_r13_acquits;
        Alcotest.test_case "R14 hot-path allocations" `Quick
          test_r14_hot_path_allocs;
        Alcotest.test_case "R14 one-shot scheduling on the hot path" `Quick
          test_r14_oneshot_scheduling;
        Alcotest.test_case "R15 convicting fixtures" `Quick test_r15_convicts;
        Alcotest.test_case "R15 acquitting fixtures" `Quick test_r15_acquits;
        Alcotest.test_case "R15 users in every tool directory" `Quick
          test_r15_counts_every_tool_dir;
        Alcotest.test_case "test-only census" `Quick test_test_only_census;
        Alcotest.test_case "R15 follows module aliases" `Quick
          test_r15_follows_module_aliases;
        Alcotest.test_case "same-named executables both linted" `Quick
          test_same_named_executables;
        QCheck_alcotest.to_alcotest test_reorder_stability;
      ] );
  ]
