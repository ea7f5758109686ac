(* Instants and spans are both immediate native ints (63-bit
   nanoseconds reach past year 2260), not boxed int64: the scheduler
   touches an instant on every schedule and every pop, and the
   transport takes a span per RTT sample and per RTO update, so a boxed
   representation would cost an allocation at each of those plus a
   write barrier per store. *)
type t = int

and span = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Time.of_ns: negative";
  n

let of_int_ns n =
  if n < 0 then invalid_arg "Time.of_int_ns: negative";
  n

let to_int_ns t = t
let span_of_int_ns n = n
let span_to_int_ns d = d
let ns_per_sec = 1_000_000_000.

(* Inlined so a caller's float argument stays unboxed. *)
let[@inline] span_of_sec s =
  if not (Float.is_finite s) || s < 0. then
    invalid_arg "Time.span_of_sec: negative or non-finite";
  int_of_float (Float.round (s *. ns_per_sec))

let span_of_us us = span_of_sec (us *. 1e-6)
let span_of_ms ms = span_of_sec (ms *. 1e-3)
let span_to_sec d = float_of_int d /. ns_per_sec
let of_sec s = of_ns (span_of_sec s)
let to_sec t = float_of_int t /. ns_per_sec
let of_us us = of_sec (us *. 1e-6)
let of_ms ms = of_sec (ms *. 1e-3)
let add t d = t + d
let diff a b = a - b
let ( <= ) (a : t) b = a <= b
let ( < ) (a : t) b = a < b
let min (a : t) b = if a <= b then a else b

let to_string t =
  let ns = float_of_int t in
  if Stdlib.( < ) ns 1e3 then Printf.sprintf "%.0fns" ns
  else if Stdlib.( < ) ns 1e6 then Printf.sprintf "%.3fus" (ns /. 1e3)
  else if Stdlib.( < ) ns 1e9 then Printf.sprintf "%.3fms" (ns /. 1e6)
  else Printf.sprintf "%.6fs" (ns /. 1e9)
