let of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Percentile.of_sorted: empty";
  if p < 0. || p > 100. then invalid_arg "Percentile.of_sorted: p out of range";
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Int.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let of_array arr p =
  let copy = Array.copy arr in
  Array.sort Float.compare copy;
  of_sorted copy p

let of_list l p = of_array (Array.of_list l) p
