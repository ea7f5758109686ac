module Sim = Engine.Sim
module Time = Engine.Time

let require_positive ~scenario ~what n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "%s.run: need %s (got %d)" scenario what n)

let require_non_negative ~scenario ~what n =
  if n < 0 then
    invalid_arg
      (Printf.sprintf "%s.run: need non-negative %s (got %d)" scenario what n)

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
