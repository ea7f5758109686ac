module Sim = Engine.Sim
module Time = Engine.Time

let cls_sample = Engine.Event_class.(index Sample)

let start sim ~period ~stop_at f =
  if Time.span_to_int_ns period <= 0 then
    invalid_arg "Obs.Sampler.start: period must be positive";
  let rec tick () =
    f (Sim.now sim);
    let next = Time.add (Sim.now sim) period in
    if Time.(next <= stop_at) then
      ignore (Sim.schedule_at_cls sim next ~cls:cls_sample tick)
  in
  tick ()
