(* Instants are immediate native ints (63-bit nanoseconds reach past
   year 2260), not boxed int64: the scheduler touches an instant on
   every schedule and every pop, and a boxed representation costs an
   allocation per event plus a write barrier per store. Spans stay
   int64 at the API boundary; the conversions below are single machine
   instructions. *)
type t = int

and span = int64

let zero = 0

let of_ns n =
  if Int64.compare n 0L < 0 then invalid_arg "Time.of_ns: negative";
  Int64.to_int n

let to_ns t = Int64.of_int t

let of_int_ns n =
  if n < 0 then invalid_arg "Time.of_int_ns: negative";
  n

let to_int_ns t = t

let ns_per_sec = 1_000_000_000.

let span_of_sec s =
  if not (Float.is_finite s) || s < 0. then
    invalid_arg "Time.span_of_sec: negative or non-finite";
  Int64.of_float (Float.round (s *. ns_per_sec))

let span_of_us us = span_of_sec (us *. 1e-6)
let span_of_ms ms = span_of_sec (ms *. 1e-3)
let span_to_sec d = Int64.to_float d /. ns_per_sec
let of_sec s = of_ns (span_of_sec s)
let to_sec t = float_of_int t /. ns_per_sec
let of_us us = of_sec (us *. 1e-6)
let of_ms ms = of_sec (ms *. 1e-3)
let add t d = t + Int64.to_int d
let diff a b = Int64.of_int (a - b)
let ( <= ) (a : t) b = a <= b
let ( < ) (a : t) b = a < b
let min (a : t) b = if a <= b then a else b

let to_string t =
  let ns = float_of_int t in
  if Stdlib.( < ) ns 1e3 then Printf.sprintf "%.0fns" ns
  else if Stdlib.( < ) ns 1e6 then Printf.sprintf "%.3fus" (ns /. 1e3)
  else if Stdlib.( < ) ns 1e9 then Printf.sprintf "%.3fms" (ns /. 1e6)
  else Printf.sprintf "%.6fs" (ns /. 1e9)
