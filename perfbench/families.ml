(* The benchmark's workloads: fixed Exp.Registry families, each run
   through Exp.Runner exactly as `dtsim sweep` runs it. *)

type t = {
  name : string;
  registry : string;  (** The Exp.Registry entry whose specs are run. *)
  stride : int;  (** The sweep runs every [stride]-th registry spec. *)
  analyze : bool;  (** Streaming analyzer teed into every run. *)
  profile_stride : int option;
      (** Self-profile every [stride]-th sweep spec through Runner.run_one
          ~on_sim; [None] when the workload takes no on_sim. *)
  fanout_jobs : int option;
      (** The per-layer run also sends the sweep's specs through
          Exp.Runner.run with this many domains. *)
}

let all =
  [
    {
      name = "queue_trace";
      registry = "fig_queue";
      stride = 1;
      analyze = true;
      profile_stride = Some 1;
      fanout_jobs = None;
    };
    {
      name = "fattree_fct";
      registry = "fig_fattree";
      stride = 1;
      analyze = false;
      (* Workloads.Fattree.run takes no on_sim, so the fabric cannot be
         self-profiled; its layer numbers come from the boundary rows. *)
      profile_stride = None;
      fanout_jobs = None;
    };
    {
      name = "buffer_pool";
      registry = "fig_buffer";
      (* Twelve of the 45 specs, which cover every pool size, alpha and
         protocol (the registry nests protocol in alpha in pool size),
         and split evenly over two domains. *)
      stride = 4;
      analyze = false;
      profile_stride = Some 2;
      fanout_jobs = Some 2;
    };
  ]

let names = List.map (fun f -> f.name) all
let find name = List.find_opt (fun f -> String.equal f.name name) all

(* Every registry spec of these families is seeded with 1, so at this
   seed the benchmark runs the registry's specs unchanged. *)
let default_seed = 1L

let specs t ~seed =
  match Exp.Registry.find t.registry with
  | Some e ->
      e.Exp.Registry.specs ()
      |> List.filteri (fun i _ -> i mod t.stride = 0)
      |> List.map (Exp.Spec.with_seed seed)
  | None -> invalid_arg ("no registry entry " ^ t.registry)

(* Indices of the sweep specs that the traced run covers. *)
let subset t specs =
  let stride = Option.value t.profile_stride ~default:1 in
  List.filteri (fun i _ -> i mod stride = 0) specs
  |> List.mapi (fun i s -> (i * stride, s))
