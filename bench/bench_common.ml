(* Shared configuration and helpers for the figure-reproduction harness.

   Every section that simulates declares an Exp.Claim and runs it through
   Exp.Claim.evaluate, which fans runs across domains when the harness
   is invoked with -j N. Analysis-only sections (fluid model, describing
   function, fig2's synthetic swing) bypass the experiment layer. *)

(* --quick: every section runs Exp.Claim.quick of its specs (the rule is
   stated in its doc comment). *)
let quick = ref false

(* -j N: domains for Exp.Runner sweeps (1 = serial). *)
let jobs = ref 1

let section_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Every section leaves a run-provenance record behind, so BENCH_*.json
   results are comparable across PRs. Sections that write their own
   manifest (with real metrics) are recorded here so the harness driver
   does not clobber them with its generic wall-clock-only record. *)
let manifest_written : (string, unit) Hashtbl.t = Hashtbl.create 8

let wrote_manifest section = Hashtbl.mem manifest_written section

let save_manifest ~section manifest =
  Hashtbl.replace manifest_written section ();
  let file = Printf.sprintf "BENCH_%s.json" section in
  let oc = open_out file in
  Obs.Manifest.write oc manifest;
  close_out oc;
  Printf.printf "[manifest %s]\n%!" file

let write_manifest ~section ~wall_s ?(seed = 0L) ?(events = 0) ?(params = [])
    ?(metrics = []) () =
  save_manifest ~section
    (Obs.Manifest.make
       ~name:("bench." ^ section)
       ~seed
       ~params:(("quick", Obs.Json.Bool !quick) :: params)
       ~wall_clock_s:wall_s ~events ~metrics ())

(* An epilogue that prints a fixed note under a claim's table. *)
let note text (_ : Exp.Claim.report) = print_string ("\n" ^ text)

(* An optional value formatted as a claim's table formats it: "-" when
   absent. *)
let cell digits = function
  | Some v -> Stats.Table.fmt_f digits v
  | None -> "-"
