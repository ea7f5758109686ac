(* Shared configuration and helpers for the figure-reproduction harness.

   Sections that measure simulation runs declare Exp.Spec lists (usually
   via the Exp.Registry builders, handing them the --quick scaling) and
   execute them through [run_specs], which fans runs across domains when
   the harness is invoked with -j N. Analysis-only sections (fluid model,
   describing function, fig2's synthetic swing) bypass the experiment
   layer. *)

module Time = Engine.Time

(* Scaled run lengths: --quick halves the simulated windows and repeats so
   the whole harness stays interactive during development. *)
let quick = ref false

let scale_span s =
  if !quick then Time.span_of_int_ns (Time.span_to_int_ns s / 2) else s
let scale_int n = if !quick then Int.max 1 (n / 2) else n

(* Longlived sections all share the paper's 100/200 ms windows. *)
let warmup () = scale_span (Time.span_of_ms 100.)
let measure () = scale_span (Time.span_of_ms 200.)

(* -j N: domains for Exp.Runner sweeps (1 = serial). *)
let jobs = ref 1

let run_specs specs = Exp.Runner.run ~jobs:!jobs specs

(* The protocol operating points live in Exp.Registry; the two the
   spectrum section instantiates directly: *)
let dctcp_sim () = Exp.Spec.protocol_of Exp.Registry.sim_dctcp
let dt_sim () = Exp.Spec.protocol_of Exp.Registry.sim_dt

(* Payload extractors: a bench section feeding a table cannot render a
   failed or wrong-kinded run, so these exit loudly instead. *)
let bad_outcome name msg : 'a =
  Printf.eprintf "bench: run %s: %s\n" name msg;
  exit 1

(* [payload_of pick o]: [o]'s result, narrowed by [pick] to one
   workload's record. *)
let payload_of pick (o : Exp.Runner.outcome) =
  let name = o.Exp.Runner.spec.Exp.Spec.name in
  match o.Exp.Runner.result with
  | Exp.Outcome.Failed { error; _ } -> bad_outcome name error
  | Exp.Outcome.Done p -> (
      match pick p with
      | Some r -> r
      | None ->
          bad_outcome name ("unexpected payload " ^ Exp.Outcome.payload_kind p))

let longlived_of =
  payload_of (function Exp.Outcome.Longlived r -> Some r | _ -> None)

let incast_of =
  payload_of (function
    | Exp.Outcome.Fanin (Workloads.Fanin.Goodput r) -> Some r
    | _ -> None)

let completion_of =
  payload_of (function
    | Exp.Outcome.Fanin (Workloads.Fanin.Completion_time r) -> Some r
    | _ -> None)

let deadline_of =
  payload_of (function
    | Exp.Outcome.Fanin (Workloads.Fanin.Deadlines_met r) -> Some r
    | _ -> None)

let dynamic_of =
  payload_of (function Exp.Outcome.Dynamic r -> Some r | _ -> None)

let convergence_of =
  payload_of (function Exp.Outcome.Convergence r -> Some r | _ -> None)

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

let mbps bps = bps /. 1e6
