type summary = {
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  mean : float;
  max : float;
  count : int;
}

let slowdown ~ideal_ns ~actual_ns =
  let ideal = Engine.Time.span_to_int_ns ideal_ns
  and actual = Engine.Time.span_to_int_ns actual_ns in
  if ideal <= 0 then invalid_arg "Fct.slowdown: ideal_ns must be positive";
  if actual < 0 then invalid_arg "Fct.slowdown: actual_ns must be non-negative";
  let s = float_of_int actual /. float_of_int ideal in
  if s < 1. then 1. else s

let summarize arr =
  let n = Array.length arr in
  if n = 0 then invalid_arg "Fct.summarize: empty";
  let copy = Array.copy arr in
  Array.sort Float.compare copy;
  let total = Array.fold_left ( +. ) 0. copy in
  {
    p50 = Percentile.of_sorted copy 50.;
    p95 = Percentile.of_sorted copy 95.;
    p99 = Percentile.of_sorted copy 99.;
    p999 = Percentile.of_sorted copy 99.9;
    mean = total /. float_of_int n;
    max = copy.(n - 1);
    count = n;
  }
