(* mean (slot 0), m2 (slot 1), min (slot 2) and max (slot 3) live in a
   flat float array: as mutable float fields of this mixed record every
   [add] would box all four stores. *)
type t = { mutable n : int; acc : float array }

let create () = { n = 0; acc = [| 0.; 0.; infinity; neg_infinity |] }

let[@inline] add t x =
  let a = t.acc in
  t.n <- t.n + 1;
  let delta = x -. a.(0) in
  a.(0) <- a.(0) +. (delta /. float_of_int t.n);
  a.(1) <- a.(1) +. (delta *. (x -. a.(0)));
  if x < a.(2) then a.(2) <- x;
  if x > a.(3) then a.(3) <- x

let mean t = if t.n = 0 then 0. else t.acc.(0)
let variance t = if t.n < 2 then 0. else t.acc.(1) /. float_of_int t.n
let stddev t = sqrt (variance t)

let min t =
  if t.n = 0 then invalid_arg "Descriptive.min: empty" else t.acc.(2)

let max t =
  if t.n = 0 then invalid_arg "Descriptive.max: empty" else t.acc.(3)

let of_array arr =
  let t = create () in
  Array.iter (add t) arr;
  t
