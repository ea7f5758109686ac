(* srtt (slot 0, seconds) and rttvar (slot 1) live in a flat float array:
   as mutable float fields of this mixed record every RTT sample — one per
   timed segment — would box both stores. *)
type t = {
  min_rto : Engine.Time.span;
  max_rto : Engine.Time.span;
  est : float array;
  mutable rto : Engine.Time.span;
  mutable samples : int;
}

let clamp t rto_s =
  let ns = Engine.Time.span_of_sec rto_s in
  if Int64.compare ns t.min_rto < 0 then t.min_rto
  else if Int64.compare ns t.max_rto > 0 then t.max_rto
  else ns

let create ~min_rto ~max_rto ~initial_rto () =
  if Int64.compare min_rto max_rto > 0 then
    invalid_arg "Rtt_estimator.create: min_rto > max_rto";
  { min_rto; max_rto; est = [| 0.; 0. |]; rto = initial_rto; samples = 0 }

let sample t span =
  let r = Engine.Time.span_to_sec span in
  if t.samples = 0 then begin
    t.est.(0) <- r;
    t.est.(1) <- r /. 2.
  end
  else begin
    t.est.(1) <- (0.75 *. t.est.(1)) +. (0.25 *. Float.abs (t.est.(0) -. r));
    t.est.(0) <- (0.875 *. t.est.(0)) +. (0.125 *. r)
  end;
  t.samples <- t.samples + 1;
  t.rto <- clamp t (t.est.(0) +. Stdlib.max (4. *. t.est.(1)) 1e-6)

let rto t = t.rto

let backoff t =
  let doubled = Int64.mul t.rto 2L in
  t.rto <-
    (if Int64.compare doubled t.max_rto > 0 then t.max_rto else doubled)

let srtt t =
  if t.samples = 0 then None else Some (Engine.Time.span_of_sec t.est.(0))
