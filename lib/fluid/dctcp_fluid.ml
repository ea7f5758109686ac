type marking = Single of float | Double of float * float

type params = {
  n : int;
  c : float;
  r0 : float;
  g : float;
  marking : marking;
  variable_rtt : bool;
  init_w : float;
  init_alpha : float;
  init_q : float;
}

let make ?(variable_rtt = true) ?(init_w = 1.) ?(init_alpha = 0.)
    ?(init_q = 0.) ~n ~c ~r0 ~g ~marking () =
  if n <= 0 then invalid_arg "Dctcp_fluid.make: n must be positive";
  if c <= 0. then invalid_arg "Dctcp_fluid.make: c must be positive";
  if r0 <= 0. then invalid_arg "Dctcp_fluid.make: r0 must be positive";
  if g <= 0. || g > 1. then invalid_arg "Dctcp_fluid.make: g out of (0,1]";
  (match marking with
  | Single k when k < 0. -> invalid_arg "Dctcp_fluid.make: negative K"
  | Double (k1, k2) when k1 < 0. || k2 < 0. ->
      invalid_arg "Dctcp_fluid.make: negative threshold"
  | Single _ | Double _ -> ());
  { n; c; r0; g; marking; variable_rtt; init_w; init_alpha; init_q }

let w0 p = p.r0 *. p.c /. float_of_int p.n
let alpha0 p = Float.min 1. (sqrt (2. /. w0 p))

type trajectory = {
  times : float array;
  w : float array;
  alpha : float array;
  q : float array;
  p : float array;
}

(* Continuous version of the double-threshold zone machine; see
   Dctcp.Marking_policies for the discrete twin and DESIGN.md for the
   semantics. *)
let make_indicator = function
  | Single k -> fun q -> q > k
  | Double (k1, k2) ->
      let lo = Float.min k1 k2 and hi = Float.max k1 k2 in
      let marking = ref false in
      let prev = ref 0. in
      fun q ->
        if q > hi then marking := true
        else if q <= lo then marking := false
        else if k1 < k2 then begin
          if !prev <= lo then marking := true
          else if !prev > hi then marking := false
        end;
        prev := q;
        !marking

let simulate params ~t_end =
  let dt = params.r0 /. 50. in
  let indicator = make_indicator params.marking in
  let nf = float_of_int params.n in
  let deriv ~t:_ ~state ~delayed =
    let w = state.(0) and alpha = state.(1) and q = state.(2) in
    let r =
      if params.variable_rtt then params.r0 +. (Float.max 0. q /. params.c)
      else params.r0
    in
    let dw = (1. /. r) -. (w *. alpha /. (2. *. r) *. delayed) in
    (* Window floor: a real sender never goes below one segment. *)
    let dw = if w <= 1. && dw < 0. then 0. else dw in
    let dalpha = params.g /. r *. (delayed -. alpha) in
    let dq = (nf *. w /. r) -. params.c in
    let dq = if q <= 0. && dq < 0. then 0. else dq in
    [| dw; dalpha; dq |]
  in
  let output ~t:_ ~state = if indicator state.(2) then 1. else 0. in
  let problem =
    {
      Dde.dim = 3;
      deriv;
      output;
      tau = params.r0;
      init_state = [| params.init_w; params.init_alpha; params.init_q |];
      init_output = 0.;
    }
  in
  let sol = Dde.integrate problem ~dt ~t_end in
  {
    times = sol.Dde.times;
    w = Dde.component sol 0;
    alpha = Dde.component sol 1;
    (* RK4 stages can momentarily undershoot the q >= 0 clamp applied in
       the derivative; report the physical (non-negative) queue. *)
    q = Array.map (Float.max 0.) (Dde.component sol 2);
    p = sol.Dde.outputs;
  }

let measurement_slice traj ~discard =
  let n = Array.length traj.times in
  let start = ref 0 in
  while !start < n && traj.times.(!start) < discard do
    incr start
  done;
  if !start >= n then invalid_arg "Dctcp_fluid: discard exceeds trajectory";
  !start

let queue_stats traj ~discard =
  let start = measurement_slice traj ~discard in
  let n = Array.length traj.q - start in
  let mean = ref 0. in
  for i = start to Array.length traj.q - 1 do
    mean := !mean +. traj.q.(i)
  done;
  let mean = !mean /. float_of_int n in
  let var = ref 0. in
  for i = start to Array.length traj.q - 1 do
    let d = traj.q.(i) -. mean in
    var := !var +. (d *. d)
  done;
  (mean, sqrt (!var /. float_of_int n))

let oscillation_amplitude traj ~discard =
  let start = measurement_slice traj ~discard in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = start to Array.length traj.q - 1 do
    if traj.q.(i) < !lo then lo := traj.q.(i);
    if traj.q.(i) > !hi then hi := traj.q.(i)
  done;
  (!hi -. !lo) /. 2.
