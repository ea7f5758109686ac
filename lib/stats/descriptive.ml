type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int t.n
let stddev t = sqrt (variance t)

let min t =
  if t.n = 0 then invalid_arg "Descriptive.min: empty" else t.min

let max t =
  if t.n = 0 then invalid_arg "Descriptive.max: empty" else t.max

let of_array arr =
  let t = create () in
  Array.iter (add t) arr;
  t
