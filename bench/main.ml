(* Figure-reproduction harness: one section per table/figure of the paper's
   evaluation, plus ablations, extensions and the events/s performance tables.

   Usage: main.exe [--quick] [-j N] [section ...]
   Sections: fig1 fig2 fig_df fig9 sweep fig14 fig15 ablations fluid
   robustness oscillation buffer fattree perf
   (default: all). -j N fans each section's Exp.Runner sweep across N
   domains; results are bit-identical to -j 1 by construction. *)

let sections =
  [
    ("fig1", Fig_queue.fig1);
    ("fig2", Fig_queue.fig2);
    ("fig_df", Fig_stability.fig_df);
    ("fig9", Fig_stability.fig9);
    ("sweep", Fig_sweep.figs_10_11_12);
    ("fig14", Fig_incast.fig14);
    ("fig15", Fig_incast.fig15);
    ( "ablations",
      fun () ->
        Ablations.ablation_thresholds ();
        Ablations.ablation_g ();
        Ablations.ablation_policies ();
        Ablations.ablation_testbed_labels () );
    ("fluid", Ablations.fluid_vs_sim);
    ("df_vs_fluid", Ablations.df_vs_fluid);
    ("spectrum", Fig_spectrum.run);
    ( "extensions",
      fun () ->
        Extensions.d2tcp ();
        Extensions.sack ();
        Extensions.queue_buildup ();
        Extensions.convergence ();
        Extensions.parking_lot () );
    ("robustness", Robustness.run);
    ("oscillation", Oscillation.run);
    ("buffer", Buffer.run);
    ("fattree", Fattree.run);
    ("perf", Perf.run);
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
    (fun (name, f) ->
      let s0 = Obs.Profile.wall_clock () in
      f ();
      let wall_s = Obs.Profile.wall_clock () -. s0 in
      if not (Bench_common.wrote_manifest name) then
        Bench_common.write_manifest ~section:name ~wall_s ();
      Printf.printf "\n[%s done in %.1fs]\n%!" name wall_s)
    selected;
  Printf.printf "\nTotal: %.1fs\n" (Obs.Profile.wall_clock () -. t0)
