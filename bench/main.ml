(* Figure-reproduction harness: one section per table/figure of the paper's
   evaluation, plus ablations, extensions, the gated claims and the
   events/s performance table. Every simulating section runs registry
   specs through Exp.Runner: perf times its runs, every other one is a
   list of Exp.Claim declarations.

   Usage: main.exe [--quick] [-j N] [section ...]
   Sections: fig1 fig2 fig_df fig9 sweep fig14 fig15 ablations fluid
   df_vs_fluid spectrum extensions robustness oscillation buffer fattree
   perf (default: all). -j N fans each claim's Exp.Runner sweep across
   N domains; results are bit-identical to -j 1 by construction. perf
   always runs serially. Exits 1 when a point of a gated claim does not
   hold, any claim has an invalid run or a perf run fails. *)

let claims_hold = ref true

(* A simulating section is a list of claims, each printed as its table,
   an epilogue that reads the report by label, any verdict, and its
   manifest as BENCH_<name>.json. *)
type section =
  | Claims of (Exp.Claim.t * (Exp.Claim.report -> unit)) list
  | Own of (unit -> unit)
      (** Analysis-only sections, and perf, which times registry runs
          rather than judging them. *)

let claim ((c : Exp.Claim.t), epilogue) =
  Bench_common.section_header c.title;
  let r =
    Exp.Claim.evaluate ~jobs:!Bench_common.jobs ~quick:!Bench_common.quick c
  in
  Stats.Table.print r.table;
  epilogue r;
  List.iter
    (fun (v : Exp.Claim.verdict) ->
      Printf.printf "  %s\n" (Exp.Claim.verdict_to_string v);
      match v.status with
      | Exp.Claim.Holds -> ()
      | Exp.Claim.Fails | Exp.Claim.Invalid -> claims_hold := false)
    r.verdicts;
  Bench_common.save_manifest ~section:c.name r.manifest

let gated c = Claims [ (c, ignore) ]

let sections =
  let module C = Exp.Claim in
  [
    ("fig1", Claims [ (C.fig1, Fig_queue.fig1) ]);
    ("fig2", Own Fig_queue.fig2);
    ("fig_df", Own Fig_stability.fig_df);
    ("fig9", Own Fig_stability.fig9);
    ("sweep", Claims [ (C.sweep, Fig_sweep.epilogue) ]);
    ("fig14", Claims [ (C.fig14, Fig_incast.fig14) ]);
    ("fig15", Claims [ (C.fig15, Fig_incast.fig15) ]);
    ( "ablations",
      Claims
        [
          (C.ablation_thresholds, Ablations.thresholds);
          (C.ablation_g, Ablations.g);
          (C.ablation_policies, Ablations.policies);
          (C.ablation_testbed_labels, Ablations.testbed_labels);
        ] );
    ("fluid", Claims [ (C.fluid, Ablations.fluid) ]);
    ("df_vs_fluid", Own Ablations.df_vs_fluid);
    ("spectrum", Claims [ (C.spectrum, Fig_spectrum.epilogue) ]);
    ( "extensions",
      Claims
        [
          (C.d2tcp, Extensions.d2tcp);
          (C.sack, Extensions.sack);
          (C.queue_buildup, Extensions.queue_buildup);
          (C.convergence, Extensions.convergence);
        ] );
    ("robustness", Claims [ (C.robustness, Robustness.epilogue) ]);
    ("oscillation", gated C.oscillation);
    ("buffer", gated C.buffer);
    ("fattree", gated C.fattree);
    ("perf", Own Perf.run);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        Bench_common.quick := true;
        parse acc rest
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            Bench_common.jobs := n;
            parse acc rest
        | _ ->
            Printf.eprintf "-j expects a positive integer, got %S\n" n;
            exit 2)
    | [ ("-j" | "--jobs") ] ->
        Printf.eprintf "-j expects an argument\n";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let selected =
    match args with
    | [] -> sections
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name sections with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown section %S; known: %s\n" name
                  (String.concat ", " (List.map fst sections));
                exit 2)
          names
  in
  Printf.printf
    "DT-DCTCP reproduction harness (%s mode)\n\
     Paper: Ease the Queue Oscillation: Analysis and Enhancement of DCTCP \
     (ICDCS 2013)\n"
    (if !Bench_common.quick then "quick" else "full");
  let t0 = Obs.Profile.wall_clock () in
  List.iter
    (fun (name, section) ->
      let s0 = Obs.Profile.wall_clock () in
      (match section with
      | Claims claims -> List.iter claim claims
      | Own f -> f ());
      let wall_s = Obs.Profile.wall_clock () -. s0 in
      (match section with
      | Own _ when not (Bench_common.wrote_manifest name) ->
          Bench_common.write_manifest ~section:name ~wall_s ()
      | Own _ | Claims _ -> ());
      Printf.printf "\n[%s done in %.1fs]\n%!" name wall_s)
    selected;
  Printf.printf "\nTotal: %.1fs\n" (Obs.Profile.wall_clock () -. t0);
  if not !claims_hold then begin
    Printf.eprintf "bench: a claim has a failing or invalid point\n";
    exit 1
  end
