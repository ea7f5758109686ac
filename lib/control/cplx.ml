type t = Complex.t = { re : float; im : float }

let make re im = { re; im }
let re x = { re = x; im = 0. }
let im y = { re = 0.; im = y }
let zero = Complex.zero
let one = Complex.one
let ( +: ) = Complex.add
let ( *: ) = Complex.mul
let ( /: ) = Complex.div
let scale k z = { re = k *. z.re; im = k *. z.im }
let neg = Complex.neg
let inv = Complex.inv
let exp = Complex.exp
let modulus = Complex.norm

let dist a b =
  let dr = a.re -. b.re and di = a.im -. b.im in
  Float.hypot dr di

let is_finite z = Float.is_finite z.re && Float.is_finite z.im
let pp ppf z = Format.fprintf ppf "%.6g%+.6gj" z.re z.im
let to_string z = Format.asprintf "%a" pp z
