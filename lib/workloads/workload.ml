module Sim = Engine.Sim
module Time = Engine.Time

let sum_senders counter =
  Array.fold_left (fun acc f -> acc + counter (Tcp.Flow.sender f)) 0

let require_positive ~scenario ~what n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "%s.run: need %s (got %d)" scenario what n)

let require_non_negative ~scenario ~what n =
  if n < 0 then
    invalid_arg
      (Printf.sprintf "%s.run: need non-negative %s (got %d)" scenario what n)

type ctx = {
  tracer : Obs.Trace.t;
  metrics : Obs.Metrics.t option;
  faults : Fault.Plan.t option;
  buffer : Net.Buffer_mgr.config;
  on_sim : Sim.t -> unit;
}

let bare =
  {
    tracer = Obs.Trace.null;
    metrics = None;
    faults = None;
    buffer = Net.Buffer_mgr.Static;
    on_sim = ignore;
  }

let watch ctx =
  match ctx.metrics with
  | None -> ctx.on_sim
  | Some m ->
      (* Simulations already replaced by a later one are folded into the
         totals; the current one is read live, so a snapshot taken
         mid-run or after a failure still counts its events. *)
      let events = ref 0 and high = ref 0 and current = ref None in
      let live f = match !current with Some sim -> f sim | None -> 0 in
      Obs.Metrics.probe m "engine.events_processed" (fun () ->
          float_of_int (!events + live Sim.events_processed));
      Obs.Metrics.probe m "engine.heap_high_water" (fun () ->
          float_of_int (Int.max !high (live Sim.heap_high_water)));
      fun sim ->
        events := !events + live Sim.events_processed;
        high := Int.max !high (live Sim.heap_high_water);
        current := Some sim;
        ctx.on_sim sim

let repeat_seed ~base ~stride r = Int64.add base (Int64.of_int (r * stride))

let slice = Time.span_of_ms 5.

let run_slices sim ~cap ~pending =
  let rec advance () =
    if pending () && Time.(Sim.now sim < cap) then begin
      Sim.run ~until:(Time.min cap (Time.add (Sim.now sim) slice)) sim;
      advance ()
    end
  in
  advance ()
