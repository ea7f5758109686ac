type problem = {
  dim : int;
  deriv : t:float -> state:float array -> delayed:float -> float array;
  output : t:float -> state:float array -> float;
  tau : float;
  init_state : float array;
  init_output : float;
}

type solution = {
  times : float array;
  states : float array array;
  outputs : float array;
}

let integrate p ~dt ~t_end =
  if dt <= 0. then invalid_arg "Dde.integrate: dt must be positive";
  if t_end <= 0. then invalid_arg "Dde.integrate: t_end must be positive";
  if p.tau < 0. then invalid_arg "Dde.integrate: negative delay";
  if Array.length p.init_state <> p.dim then
    invalid_arg "Dde.integrate: init_state dimension mismatch";
  let steps = int_of_float (Float.ceil (t_end /. dt)) in
  let times = Array.make (steps + 1) 0. in
  let states = Array.make (steps + 1) [||] in
  let outputs = Array.make (steps + 1) 0. in
  states.(0) <- Array.copy p.init_state;
  outputs.(0) <- p.output ~t:0. ~state:states.(0);
  (* Delayed lookup from the committed history; index i holds t = i*dt. *)
  let delayed_at filled t =
    let td = t -. p.tau in
    if td <= 0. then p.init_output
    else begin
      let fi = td /. dt in
      let i0 = int_of_float fi in
      let i0 = Int.min i0 filled in
      let i1 = Int.min (i0 + 1) filled in
      let frac = fi -. float_of_int i0 in
      outputs.(i0) +. (frac *. (outputs.(i1) -. outputs.(i0)))
    end
  in
  let axpy y a x =
    Array.mapi (fun i yi -> yi +. (a *. x.(i))) y
  in
  for step = 0 to steps - 1 do
    let t = float_of_int step *. dt in
    let x = states.(step) in
    let f tt xx = p.deriv ~t:tt ~state:xx ~delayed:(delayed_at step tt) in
    let k1 = f t x in
    let k2 = f (t +. (dt /. 2.)) (axpy x (dt /. 2.) k1) in
    let k3 = f (t +. (dt /. 2.)) (axpy x (dt /. 2.) k2) in
    let k4 = f (t +. dt) (axpy x dt k3) in
    let next =
      Array.init p.dim (fun i ->
          x.(i)
          +. (dt /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))))
    in
    times.(step + 1) <- t +. dt;
    states.(step + 1) <- next;
    outputs.(step + 1) <- p.output ~t:(t +. dt) ~state:next
  done;
  { times; states; outputs }

let component sol i = Array.map (fun s -> s.(i)) sol.states
