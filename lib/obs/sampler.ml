module Sim = Engine.Sim
module Time = Engine.Time

let cls_sample = Engine.Event_class.(index Sample)

(* The tick re-schedules itself every period, so it is registered once as
   a simulation action: each tick schedules an index, not a closure. *)
let start sim ~period ~stop_at f =
  if Time.span_to_int_ns period <= 0 then
    invalid_arg "Obs.Sampler.start: period must be positive";
  let next_tick = ref Sim.no_action in
  let tick () =
    f (Sim.now sim);
    let next = Time.add (Sim.now sim) period in
    if Time.(next <= stop_at) then
      ignore (Sim.schedule_action_at sim next !next_tick)
  in
  next_tick := Sim.action sim ~cls:cls_sample tick;
  tick ()
