open Cplx

let check_k k = if k <= 0. then invalid_arg "Df: threshold must be positive"
let check_x x = if x <= 0. then invalid_arg "Df: amplitude must be positive"

let relay ~k ~x =
  check_k k;
  check_x x;
  if x < k then zero
  else begin
    let r = k /. x in
    re (2. /. (Float.pi *. x) *. sqrt (1. -. (r *. r)))
  end

let hysteresis ~k1 ~k2 ~x =
  check_k k1;
  check_x x;
  if k2 < k1 then invalid_arg "Df.hysteresis: needs k1 <= k2";
  if x < k1 then zero
  else if x < k2 then relay ~k:k1 ~x
  else begin
    let r1 = k1 /. x and r2 = k2 /. x in
    let b1 = (sqrt (1. -. (r1 *. r1)) +. sqrt (1. -. (r2 *. r2))) /. Float.pi in
    let a1 = (k2 -. k1) /. (Float.pi *. x) in
    make (b1 /. x) (a1 /. x)
  end

let relay_relative ~k ~x = scale k (relay ~k ~x)
let hysteresis_relative ~k1 ~k2 ~x = scale k2 (hysteresis ~k1 ~k2 ~x)
let neg_recip n = neg (inv n)

let relay_indicator ~k ~x ~theta =
  check_k k;
  check_x x;
  x *. sin theta >= k

let hysteresis_indicator ~k1 ~k2 ~x ~theta =
  check_k k1;
  check_x x;
  if k2 < k1 then invalid_arg "Df.hysteresis_indicator: needs k1 <= k2";
  let q = x *. sin theta in
  if x < k1 then false
  else if x < k2 then q >= k1
  else begin
    (* Marking between the K1 up-crossing and the K2 down-crossing. *)
    let phi1 = asin (k1 /. x) in
    let phi2 = Float.pi -. asin (k2 /. x) in
    let theta = Float.rem theta (2. *. Float.pi) in
    let theta = if theta < 0. then theta +. (2. *. Float.pi) else theta in
    theta >= phi1 && theta <= phi2
  end

let fundamental_of_indicator indicator ~x ~n =
  check_x x;
  if n <= 0 then invalid_arg "Df.fundamental_of_indicator: n <= 0";
  let h = 2. *. Float.pi /. float_of_int n in
  let a1 = ref 0. and b1 = ref 0. in
  for i = 0 to n - 1 do
    let theta = (float_of_int i +. 0.5) *. h in
    if indicator theta then begin
      a1 := !a1 +. (cos theta *. h);
      b1 := !b1 +. (sin theta *. h)
    end
  done;
  let a1 = !a1 /. Float.pi and b1 = !b1 /. Float.pi in
  make (b1 /. x) (a1 /. x)
