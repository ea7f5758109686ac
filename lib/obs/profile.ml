let wall_clock () = Unix.gettimeofday ()

let time f =
  let t0 = wall_clock () in
  let v = f () in
  (v, wall_clock () -. t0)
