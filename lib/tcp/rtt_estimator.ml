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

let create ~min_rto ~max_rto ~initial_rto () =
  if min_rto > max_rto then
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
  (* RTO = srtt + max (4 rttvar, 1 us), clamped to [min_rto, max_rto].
     Written out here so no float crosses a call: a float argument or
     result of a call that is not inlined is boxed. *)
  let var4 = 4. *. t.est.(1) in
  let ns =
    Engine.Time.span_of_sec
      (t.est.(0) +. if var4 >= 1e-6 then var4 else 1e-6)
  in
  t.rto <-
    (if ns < t.min_rto then t.min_rto
     else if ns > t.max_rto then t.max_rto
     else ns)

let rto t = t.rto

let backoff t =
  let doubled = Engine.Time.(span_of_int_ns (span_to_int_ns t.rto * 2)) in
  t.rto <- (if doubled > t.max_rto then t.max_rto else doubled)

let srtt t =
  if t.samples = 0 then None else Some (Engine.Time.span_of_sec t.est.(0))
