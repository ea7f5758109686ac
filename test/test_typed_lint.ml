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
let compile root rels =
  let incs = List.sort_uniq String.compare (List.map Filename.dirname rels) in
  let inc_flags =
    String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) incs)
  in
  List.iter
    (fun rel ->
      let cmd =
        Printf.sprintf "cd %s && ocamlc -bin-annot -w -a %s -c %s"
          (Filename.quote root) inc_flags (Filename.quote rel)
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

(* --- R13: Time.t instants vs raw int64 arithmetic ---------------------- *)

let s13 =
  lazy
    (let root = mkdtemp () in
     (* A stand-in Engine.Time: the double-underscore filename gives the
        module the same canonical name dune's mangling produces. *)
     write root "lib/engine/engine__Time.mli"
       "type t = private int64\nval of_ns : int64 -> t\nval to_ns : t -> int64\n";
     write root "lib/engine/engine__Time.ml"
       "type t = int64\nlet of_ns (n : int64) : t = n\nlet to_ns (t : t) : int64 = t\n";
     write root "lib/net/meter.ml"
       "let bad a = Int64.add (Engine__Time.to_ns a) 5L\n\
        let coerced (a : Engine__Time.t) = (a :> int64)\n\
        let sup (a : Engine__Time.t) = (a :> int64) (* dtlint: allow R13 *)\n\
        let ok_span (s : int64) = Int64.add s 5L\n";
     compile root
       [
         "lib/engine/engine__Time.mli"; "lib/engine/engine__Time.ml";
         "lib/net/meter.ml";
       ];
     root)

let test_r13_instant_hygiene () =
  let vs = lint_root (Lazy.force s13) in
  check_renders
    "to_ns into Int64.add and a :> coercion flagged; span math and the \
     suppressed line stay legal"
    [ "R13 lib/net/meter.ml:1"; "R13 lib/net/meter.ml:2" ]
    vs

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
        let sup n l = List.map (fun x -> x * n) l (* dtlint: allow R14 *)\n";
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
    "partial application, capturing closure and float return flagged; \
     capture-free closure, suppressed line and cold module stay legal"
    [
      "R14 lib/engine/event_queue.ml:2"; "R14 lib/engine/event_queue.ml:3";
      "R14 lib/engine/event_queue.ml:5"; "R14 lib/engine/int_ring.ml:1";
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
    (contains ~sub:"captures n" capture.message)

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
        Alcotest.test_case "R14 hot-path allocations" `Quick
          test_r14_hot_path_allocs;
        QCheck_alcotest.to_alcotest test_reorder_stability;
      ] );
  ]
