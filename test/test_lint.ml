(* Tests for the dtlint static-analysis rules (lint/rules.ml), driven by
   inline fixture snippets: one positive case per rule R1-R10, the scoping
   exemptions, and the suppression-comment escape hatch. *)

module Rules = Dtlint.Rules

let findings ?rules ~file src =
  Rules.lint_source ?rules ~filename:file src
  |> List.map (fun (v : Rules.violation) -> (Rules.rule_id v.rule, v.line))

let check_findings msg expected actual =
  Alcotest.(check (list (pair string int))) msg expected actual

(* --- R1: Random outside lib/engine/rng.ml --- *)

let r1_src = "let jitter () =\n  Random.float 1.0\n"

let test_r1_random_leak () =
  check_findings "Random in lib/net" [ ("R1", 2) ]
    (findings ~file:"lib/net/port.ml" r1_src);
  check_findings "Random in bench" [ ("R1", 2) ]
    (findings ~file:"bench/perf.ml" r1_src);
  check_findings "qualified Stdlib.Random" [ ("R1", 1) ]
    (findings ~file:"lib/tcp/flow.ml" "let x = Stdlib.Random.bool ()\n");
  check_findings "open Random" [ ("R1", 1) ]
    (findings ~file:"lib/tcp/flow.ml" "open Random\n")

let test_r1_rng_exempt () =
  check_findings "lib/engine/rng.ml may use Random" []
    (findings ~file:"lib/engine/rng.ml" r1_src)

(* --- R2: float equality --- *)

let test_r2_float_equality () =
  check_findings "literal and arithmetic operands"
    [ ("R2", 2); ("R2", 3); ("R2", 4) ]
    (findings ~file:"lib/engine/time.ml"
       "let a = 1.0\n\
        let bad x = x = 0.5\n\
        let worse y = y <> (2. *. y)\n\
        let annotated z w = (z : float) == w\n\
        let fine n = n = 3\n");
  check_findings "known float producer" [ ("R2", 1) ]
    (findings ~file:"lib/net/trace.ml" "let f t u = sqrt t = u\n")

(* --- R3: polymorphic compare / hash --- *)

let test_r3_polymorphic_compare () =
  check_findings "bare compare and Hashtbl.hash"
    [ ("R3", 1); ("R3", 2) ]
    (findings ~file:"lib/engine/event_queue.ml"
       "let sort l = List.sort compare l\nlet h x = Hashtbl.hash x\n")

let test_r3_local_compare_ok () =
  (* A file that defines its own monomorphic [compare] (like Engine.Time)
     may use it bare. *)
  check_findings "locally bound compare" []
    (findings ~file:"lib/engine/time.ml"
       "let compare a b = Int64.compare a b\n\
        let lt a b = compare a b < 0\n")

let test_r3_polymorphic_max_min () =
  check_findings "bare and Stdlib-qualified max/min"
    [ ("R3", 1); ("R3", 2); ("R3", 3); ("R3", 3) ]
    (findings ~file:"lib/tcp/sender.ml"
       "let w c = max 1 c\n\
        let lo a b = Stdlib.min a b\n\
        let fold l = List.fold_left min (Stdlib.max 0 0) l\n")

let test_r3_max_min_ok () =
  (* Monomorphic [Int]/[Float] versions, and a file's own [max]/[min]
     bindings (a labelled argument, a local helper), are not Stdlib's. *)
  check_findings "Int.max, Float.min, locally bound max/min" []
    (findings ~file:"lib/engine/rng.ml"
       "let w c = Int.max 1 c + Int.min c 2\n\
        let f x = Float.min x (Float.max x 0.)\n\
        let span ~max = max + 1\n\
        let min (a : int) b = if a <= b then a else b\n\
        let g a = min a 3\n")

(* --- R4: console output inside lib/ --- *)

let test_r4_print_in_lib () =
  check_findings "print_endline in lib" [ ("R4", 1); ("R4", 2) ]
    (findings ~file:"lib/stats/table.ml"
       "let f () = print_endline \"hi\"\nlet g x = Printf.printf \"%d\" x\n")

let test_r4_print_outside_lib_ok () =
  check_findings "bench may print" []
    (findings ~file:"bench/main.ml" "let f () = print_endline \"hi\"\n")

(* --- R5: missing .mli --- *)

let test_r5_missing_mli () =
  (match Rules.check_mli ~ml_file:"lib/fluid/dde.ml" ~mli_exists:false with
  | Some v ->
      Alcotest.(check string) "rule id" "R5" (Rules.rule_id v.rule);
      Alcotest.(check int) "line" 1 v.line
  | None -> Alcotest.fail "expected an R5 violation");
  Alcotest.(check bool)
    "mli present" true
    (Rules.check_mli ~ml_file:"lib/fluid/dde.ml" ~mli_exists:true = None);
  Alcotest.(check bool)
    "outside lib exempt" true
    (Rules.check_mli ~ml_file:"bench/perf.ml" ~mli_exists:false = None)

(* --- R6: context-free failures in hot paths --- *)

let test_r6_hot_path_failures () =
  check_findings "assert false in engine" [ ("R6", 1) ]
    (findings ~file:"lib/engine/sim.ml" "let f () = assert false\n");
  check_findings "bare failwith in net" [ ("R6", 1) ]
    (findings ~file:"lib/net/switch.ml" "let f () = failwith \"\"\n");
  check_findings "messageful failwith ok" []
    (findings ~file:"lib/net/switch.ml" "let f () = failwith \"no route\"\n");
  check_findings "outside hot path exempt" []
    (findings ~file:"lib/stats/ewma.ml" "let f () = assert false\n")

(* --- R7: wall-clock reads outside lib/obs --- *)

let test_r7_wall_clock () =
  check_findings "Unix.gettimeofday in lib" [ ("R7", 1) ]
    (findings ~file:"lib/workloads/longlived.ml"
       "let t0 = Unix.gettimeofday ()\n");
  check_findings "Sys.time in bench" [ ("R7", 1) ]
    (findings ~file:"bench/perf.ml" "let t0 = Sys.time ()\n");
  check_findings "Unix.time in bin" [ ("R7", 1) ]
    (findings ~file:"bin/dtsim.ml" "let now = Unix.time ()\n");
  check_findings "Stdlib-qualified Sys.time" [ ("R7", 1) ]
    (findings ~file:"lib/engine/sim.ml" "let t = Stdlib.Sys.time ()\n")

let test_r7_obs_exempt () =
  check_findings "lib/obs may read the wall clock" []
    (findings ~file:"lib/obs/profile.ml"
       "let wall_clock () = Unix.gettimeofday ()\nlet cpu () = Sys.time ()\n");
  (* Simulated time lookalikes stay clean: Engine.Time and Sim.now are the
     sanctioned clocks. *)
  check_findings "Sim.now is not a wall clock" []
    (findings ~file:"lib/net/trace.ml" "let t sim = Engine.Sim.now sim\n")

(* --- R8: parallelism primitives outside lib/exp --- *)

let test_r8_parallelism () =
  check_findings "Domain.spawn in lib" [ ("R8", 1) ]
    (findings ~file:"lib/workloads/incast.ml"
       "let d = Domain.spawn (fun () -> 1)\n");
  check_findings "Domain.join in lib" [ ("R8", 1) ]
    (findings ~file:"lib/engine/sim.ml" "let f d = Domain.join d\n");
  check_findings "Thread.create in bin" [ ("R8", 1) ]
    (findings ~file:"bin/dtsim.ml" "let t = Thread.create ignore ()\n");
  check_findings "Unix.fork in bench" [ ("R8", 1) ]
    (findings ~file:"bench/perf.ml" "let pid = Unix.fork ()\n");
  check_findings "open Domain" [ ("R8", 1) ]
    (findings ~file:"lib/net/switch.ml" "open Domain\n")

let test_r8_exp_exempt () =
  check_findings "lib/exp may spawn and join domains" []
    (findings ~file:"lib/exp/runner.ml"
       "let run f = Domain.join (Domain.spawn f)\n");
  (* Atomics are allowed everywhere: a lock-free counter doesn't introduce
     the scheduling nondeterminism R8 exists to keep out of simulations. *)
  check_findings "Atomic is not a parallelism primitive" []
    (findings ~file:"lib/net/packet.ml" "let c = Atomic.make 0\n")

(* --- R9: Obj.magic outside lib/engine --- *)

let test_r9_obj_magic () =
  check_findings "Obj.magic in lib/net" [ ("R9", 1) ]
    (findings ~file:"lib/net/queue_disc.ml"
       "let placeholder () = Obj.magic 0\n");
  check_findings "Obj.magic in bench" [ ("R9", 1) ]
    (findings ~file:"bench/perf.ml" "let x : int = Obj.magic \"boo\"\n");
  check_findings "Stdlib-qualified" [ ("R9", 1) ]
    (findings ~file:"bin/dtsim.ml" "let x : int = Stdlib.Obj.magic 1.0\n");
  (* Other Obj functions are not the hazard R9 polices. *)
  check_findings "Obj.repr untouched" []
    (findings ~file:"lib/net/queue_disc.ml"
       "let words x = Obj.reachable_words (Obj.repr x)\n")

let test_r9_engine_exempt () =
  check_findings "lib/engine containers may seed placeholder slots" []
    (findings ~file:"lib/engine/int_ring.ml"
       "let slot () = Obj.magic 0\n");
  check_findings "suppression works for R9" []
    (findings ~file:"lib/net/queue_disc.ml"
       "let p () = Obj.magic 0 (* dtlint: allow R9 *)\n")

(* --- R10: Rng stream creation outside the owner layers --- *)

let test_r10_rng_stream () =
  check_findings "Rng.create in lib/net" [ ("R10", 1) ]
    (findings ~file:"lib/net/port.ml"
       "let r = Engine.Rng.create ~seed:1L\n");
  check_findings "Rng.split in lib/tcp" [ ("R10", 1) ]
    (findings ~file:"lib/tcp/sender.ml"
       "let fork parent = Rng.split parent\n");
  check_findings "Rng.create in bench" [ ("R10", 1) ]
    (findings ~file:"bench/perf.ml"
       "let r = Engine.Rng.create ~seed:7L\n");
  check_findings "Rng.create in bin" [ ("R10", 1) ]
    (findings ~file:"bin/dtsim.ml"
       "let r = Engine.Rng.create ~seed:7L\n");
  (* Drawing from an existing stream is fine anywhere — R10 polices
     minting streams, not using them. *)
  check_findings "Rng.float untouched" []
    (findings ~file:"lib/net/port.ml" "let d rng = Engine.Rng.float rng\n")

let test_r10_owner_exempt () =
  List.iter
    (fun file ->
      check_findings (file ^ " may mint streams") []
        (findings ~file "let r = Engine.Rng.create ~seed:1L\n"))
    [
      "lib/engine/sim.ml";
      "lib/fault/injector.ml";
      "lib/workloads/incast.ml";
      "lib/exp/runner.ml";
    ];
  check_findings "suppression works for R10" []
    (findings ~file:"lib/net/port.ml"
       "let r = Rng.create ~seed:1L (* dtlint: allow R10 *)\n")

(* --- suppression comments --- *)

let test_suppression () =
  check_findings "matching rule suppressed" []
    (findings ~file:"lib/engine/time.ml"
       "let eq a b = a = 0.5 (* dtlint: allow R2 *)\n");
  check_findings "non-matching rule still fires" [ ("R2", 1) ]
    (findings ~file:"lib/engine/time.ml"
       "let eq a b = a = 0.5 (* dtlint: allow R1 *)\n");
  check_findings "allow all" []
    (findings ~file:"lib/engine/time.ml"
       "let eq a b = a = 0.5 (* dtlint: allow all *)\n");
  check_findings "only covers its own line" [ ("R2", 2) ]
    (findings ~file:"lib/engine/time.ml"
       "let a = 1.0 (* dtlint: allow R2 *)\nlet eq b = b = 0.5\n")

(* --- rule selection (the --only/--skip machinery) --- *)

let test_rule_selection () =
  let src = "let b x = x = 0.5\nlet c () = Random.bool ()\n" in
  check_findings "only R1" [ ("R1", 2) ]
    (findings ~rules:[ Rules.R1 ] ~file:"lib/net/host.ml" src);
  check_findings "skip nothing" [ ("R2", 1); ("R1", 2) ]
    (findings ~file:"lib/net/host.ml" src);
  Alcotest.(check bool)
    "rule_of_id roundtrip" true
    (List.for_all
       (fun r -> Rules.rule_of_id (Rules.rule_id r) = Some r)
       Rules.all_rules)

let test_parse_error () =
  Alcotest.(check bool)
    "raises Parse_error" true
    (match findings ~file:"lib/engine/sim.ml" "let let = in" with
    | exception Rules.Parse_error ("lib/engine/sim.ml", _, _) -> true
    | _ -> false)

let suites =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "R1 random leakage" `Quick test_r1_random_leak;
        Alcotest.test_case "R1 rng.ml exempt" `Quick test_r1_rng_exempt;
        Alcotest.test_case "R2 float equality" `Quick test_r2_float_equality;
        Alcotest.test_case "R3 polymorphic compare" `Quick
          test_r3_polymorphic_compare;
        Alcotest.test_case "R3 local compare ok" `Quick test_r3_local_compare_ok;
        Alcotest.test_case "R3 polymorphic max/min" `Quick
          test_r3_polymorphic_max_min;
        Alcotest.test_case "R3 monomorphic or local max/min ok" `Quick
          test_r3_max_min_ok;
        Alcotest.test_case "R4 print in lib" `Quick test_r4_print_in_lib;
        Alcotest.test_case "R4 print outside lib" `Quick
          test_r4_print_outside_lib_ok;
        Alcotest.test_case "R5 missing mli" `Quick test_r5_missing_mli;
        Alcotest.test_case "R6 hot-path failures" `Quick
          test_r6_hot_path_failures;
        Alcotest.test_case "R7 wall-clock reads" `Quick test_r7_wall_clock;
        Alcotest.test_case "R7 lib/obs exempt" `Quick test_r7_obs_exempt;
        Alcotest.test_case "R8 parallelism primitives" `Quick
          test_r8_parallelism;
        Alcotest.test_case "R8 lib/exp exempt" `Quick test_r8_exp_exempt;
        Alcotest.test_case "R9 Obj.magic outside engine" `Quick
          test_r9_obj_magic;
        Alcotest.test_case "R9 lib/engine exempt" `Quick test_r9_engine_exempt;
        Alcotest.test_case "R10 Rng streams outside owners" `Quick
          test_r10_rng_stream;
        Alcotest.test_case "R10 owner layers exempt" `Quick
          test_r10_owner_exempt;
        Alcotest.test_case "suppression comment" `Quick test_suppression;
        Alcotest.test_case "rule selection" `Quick test_rule_selection;
        Alcotest.test_case "parse errors surface" `Quick test_parse_error;
      ] );
  ]
