type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 seed }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = create ~seed:(int64 t)

let float t =
  (* 53 high-quality bits -> [0, 1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine for simulation purposes given 64 bits of
     state entropy against small bounds. *)
  let v = Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int bound) in
  Int64.to_int v

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1. -. float t in
  -.mean *. log u

let jitter_span t ~max =
  if Int64.compare max 0L <= 0 then 0L
  else Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.add max 1L)
