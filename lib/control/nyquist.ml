type point = { param : float; z : Cplx.t }

let log_space ~lo ~hi ~n =
  if lo <= 0. || hi <= lo then invalid_arg "Nyquist.log_space: bad range";
  if n < 2 then invalid_arg "Nyquist.log_space: need n >= 2";
  let llo = log lo and lhi = log hi in
  Array.init n (fun i ->
      Stdlib.exp (llo +. ((lhi -. llo) *. float_of_int i /. float_of_int (n - 1))))

let plant_locus params ~k0 ~w =
  Array.map (fun w -> { param = w; z = Cplx.scale k0 (Plant.g_jw params w) }) w

let df_locus ~df ~x =
  let points =
    Array.to_list x
    |> List.filter_map (fun x ->
           let n = df x in
           let z = Df.neg_recip n in
           if Cplx.is_finite z then Some { param = x; z } else None)
  in
  Array.of_list points

let hysteresis_neg_recip_locus ~k1 ~k2 ~x =
  df_locus ~df:(fun x -> Df.hysteresis_relative ~k1 ~k2 ~x) ~x

type crossing = { z : Cplx.t; param_a : float; param_b : float }

let segment_intersection p0 p1 q0 q1 =
  (* Solve p0 + t (p1 - p0) = q0 + u (q1 - q0) for t, u in [0, 1]. *)
  let rx = p1.Cplx.re -. p0.Cplx.re and ry = p1.Cplx.im -. p0.Cplx.im in
  let sx = q1.Cplx.re -. q0.Cplx.re and sy = q1.Cplx.im -. q0.Cplx.im in
  let denom = (rx *. sy) -. (ry *. sx) in
  if Float.abs denom < 1e-300 then None
  else begin
    let qpx = q0.Cplx.re -. p0.Cplx.re and qpy = q0.Cplx.im -. p0.Cplx.im in
    let t = ((qpx *. sy) -. (qpy *. sx)) /. denom in
    let u = ((qpx *. ry) -. (qpy *. rx)) /. denom in
    if t >= 0. && t <= 1. && u >= 0. && u <= 1. then
      Some
        ( Cplx.make (p0.Cplx.re +. (t *. rx)) (p0.Cplx.im +. (t *. ry)),
          t,
          u )
    else None
  end

let interp a b t = a +. ((b -. a) *. t)

let intersections curve_a curve_b =
  let found = ref [] in
  for i = 0 to Array.length curve_a - 2 do
    let a0 : point = curve_a.(i) and a1 : point = curve_a.(i + 1) in
    for jdx = 0 to Array.length curve_b - 2 do
      let b0 : point = curve_b.(jdx) and b1 : point = curve_b.(jdx + 1) in
      match segment_intersection a0.z a1.z b0.z b1.z with
      | None -> ()
      | Some (z, t, u) ->
          found :=
            {
              z;
              param_a = interp a0.param a1.param t;
              param_b = interp b0.param b1.param u;
            }
            :: !found
    done
  done;
  List.rev !found

let real_axis_crossings curve =
  let out = ref [] in
  for i = 0 to Array.length curve - 2 do
    let a : point = curve.(i) and b : point = curve.(i + 1) in
    let ia = a.z.Cplx.im and ib = b.z.Cplx.im in
    if (ia <= 0. && ib > 0.) || (ia >= 0. && ib < 0.) then begin
      let t = if ib = ia then 0. else -.ia /. (ib -. ia) in
      if t >= 0. && t <= 1. then
        out :=
          ( interp a.param b.param t,
            interp a.z.Cplx.re b.z.Cplx.re t )
          :: !out
    end
  done;
  List.rev !out
