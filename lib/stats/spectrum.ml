let is_power_of_two n = n > 0 && n land (n - 1) = 0

let fft input =
  let n = Array.length input in
  if not (is_power_of_two n) then
    invalid_arg "Spectrum.fft: length must be a power of two";
  (* Iterative in-order Cooley-Tukey with bit-reversal permutation. *)
  let a = Array.copy input in
  let bits =
    let rec count b m = if m >= n then b else count (b + 1) (m * 2) in
    count 0 1
  in
  let reverse i =
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    !r
  in
  Array.iteri
    (fun i _ ->
      let j = reverse i in
      if i < j then begin
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      end)
    a;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let theta = -2. *. Float.pi /. float_of_int !len in
    let wstep = { Complex.re = cos theta; im = sin theta } in
    let block = ref 0 in
    while !block < n do
      let w = ref Complex.one in
      for k = 0 to half - 1 do
        let even = a.(!block + k) in
        let odd = Complex.mul a.(!block + k + half) !w in
        a.(!block + k) <- Complex.add even odd;
        a.(!block + k + half) <- Complex.sub even odd;
        w := Complex.mul !w wstep
      done;
      block := !block + !len
    done;
    len := !len * 2
  done;
  a

let next_power_of_two n =
  let rec go m = if m >= n then m else go (m * 2) in
  go 1

(* Magnitude-squared spectrum of a real series (mean removed, Hann window
   applied, zero-padded to the next power of two). Index [k] is frequency
   [k * fs / n_fft]; only the first half (positive frequencies) is
   returned. *)
let power_spectrum samples =
  let n = Array.length samples in
  if n = 0 then [||]
  else begin
    let mean = Array.fold_left ( +. ) 0. samples /. float_of_int n in
    let n_fft = next_power_of_two n in
    let windowed =
      Array.init n_fft (fun i ->
          if i >= n then Complex.zero
          else begin
            let hann =
              0.5
              *. (1.
                 -. cos (2. *. Float.pi *. float_of_int i /. float_of_int (n - 1)))
            in
            { Complex.re = (samples.(i) -. mean) *. hann; im = 0. }
          end)
    in
    let spectrum = fft windowed in
    Array.init (n_fft / 2) (fun k -> Complex.norm2 spectrum.(k))
  end

type peak = { frequency_hz : float; power : float; total_power : float }

type verdict =
  | Peak of peak
  | Too_short of { samples : int; needed : int }
  | No_variation of { samples : int }

let min_samples = 16

let analyze ~samples ~sample_rate_hz =
  let n = Array.length samples in
  if n < min_samples then Too_short { samples = n; needed = min_samples }
  else begin
    let ps = power_spectrum samples in
    let n_fft = 2 * Array.length ps in
    let total = Array.fold_left ( +. ) 0. ps in
    if total <= 0. then No_variation { samples = n }
    else begin
      (* skip DC (k = 0); find the strongest bin *)
      let best = ref 1 in
      for k = 2 to Array.length ps - 1 do
        if ps.(k) > ps.(!best) then best := k
      done;
      if ps.(!best) <= 0. then No_variation { samples = n }
      else
        Peak
          {
            frequency_hz =
              float_of_int !best *. sample_rate_hz /. float_of_int n_fft;
            power = ps.(!best);
            total_power = total;
          }
    end
  end

let verdict_note = function
  | Peak _ -> None
  | Too_short { samples; needed } ->
      Some
        (Printf.sprintf "series too short: %d samples (need >= %d)" samples
           needed)
  | No_variation { samples } ->
      Some
        (Printf.sprintf "no variation: series of %d samples is flat" samples)

let dominant_frequency ~samples ~sample_rate_hz =
  match analyze ~samples ~sample_rate_hz with
  | Peak p -> Some p
  | Too_short _ | No_variation _ -> None
