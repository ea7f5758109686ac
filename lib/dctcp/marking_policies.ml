let bytes_of_packets k =
  if k < 0 then invalid_arg "Marking_policies.bytes_of_packets";
  k * 1500

type flip_callback = marking:bool -> occ_bytes:int -> unit

(* Shared zone machine for both the absolute and the limit-relative
   double threshold. [lo]/[hi] are refs so a limit-relative wrapper can
   move the band from [on_limit]; [marking] is the caller-visible state;
   [directional] fixes the in-band rule once (it depends on the K1-vs-K2
   ordering, which scaling by a common positive limit preserves). *)
let zone_machine ?on_flip ~directional ~lo ~hi ~marking () =
  let prev = ref 0 in
  (* Zones: above [hi] always marking, at/below [lo] never; inside the band
     the state depends on the configuration. With K1 < K2 (the paper's
     simulation setup) the band is directional: entering it rising through
     K1 starts marking early, entering it falling through K2 stops marking
     early. With K1 > K2 the band is a classic thermostat (state held).
     K1 = K2 degenerates to the single threshold. *)
  let update now =
    let before = !marking in
    if now > !hi then marking := true
    else if now <= !lo then marking := false
    else if directional then begin
      if !prev <= !lo then marking := true
      else if !prev > !hi then marking := false
    end;
    prev := now;
    if Bool.equal before !marking then ()
    else
      match on_flip with
      | Some f -> f ~marking:!marking ~occ_bytes:now
      | None -> ()
  in
  update

let single_threshold ~k_bytes =
  if k_bytes < 0 then invalid_arg "Marking_policies.single_threshold";
  Net.Marking.make
    ~on_enqueue:(fun ~bytes ~packets:_ -> bytes > k_bytes)
    ~on_dequeue:(fun ~bytes:_ ~packets:_ -> ())
    ()

let double_threshold ?on_flip ~k1_bytes ~k2_bytes () =
  if k1_bytes < 0 || k2_bytes < 0 then
    invalid_arg "Marking_policies.double_threshold";
  let lo = ref (Int.min k1_bytes k2_bytes) in
  let hi = ref (Int.max k1_bytes k2_bytes) in
  let marking = ref false in
  let update =
    zone_machine ?on_flip ~directional:(k1_bytes < k2_bytes) ~lo ~hi ~marking
      ()
  in
  let on_enqueue ~bytes ~packets:_ =
    update bytes;
    !marking
  in
  let on_dequeue ~bytes ~packets:_ = update bytes in
  Net.Marking.make ~on_enqueue ~on_dequeue ()

(* Limit-relative thresholds: fractions of the buffer manager's current
   effective limit, re-derived on every [on_limit] callback. The
   fraction is quantised to 1/1024ths and the per-callback derivation is
   one multiply and shift of ints — deterministic across machines and
   allocation-free on the hot path (Queue_disc invokes [on_limit] per
   enqueue/dequeue while the queue sits on a shared pool). *)

let frac_x1024 ~what f =
  if f < 0. || f > 1. then
    invalid_arg (Printf.sprintf "Marking_policies.%s: fraction outside [0,1]" what);
  int_of_float (f *. 1024.)

let single_threshold_scaled ~k_frac =
  let kx = frac_x1024 ~what:"single_threshold_scaled" k_frac in
  let k = ref 0 in
  Net.Marking.make
    ~on_limit:(fun ~limit_bytes -> k := limit_bytes * kx / 1024)
    ~on_enqueue:(fun ~bytes ~packets:_ -> bytes > !k)
    ~on_dequeue:(fun ~bytes:_ ~packets:_ -> ())
    ()

let double_threshold_scaled ?on_flip ~k1_frac ~k2_frac () =
  let k1x = frac_x1024 ~what:"double_threshold_scaled" k1_frac in
  let k2x = frac_x1024 ~what:"double_threshold_scaled" k2_frac in
  let lo = ref 0 in
  let hi = ref 0 in
  let marking = ref false in
  let lox = Int.min k1x k2x in
  let hix = Int.max k1x k2x in
  let update =
    zone_machine ?on_flip ~directional:(k1x < k2x) ~lo ~hi ~marking ()
  in
  let on_limit ~limit_bytes =
    lo := limit_bytes * lox / 1024;
    hi := limit_bytes * hix / 1024
  in
  let on_enqueue ~bytes ~packets:_ =
    update bytes;
    !marking
  in
  let on_dequeue ~bytes ~packets:_ = update bytes in
  Net.Marking.make ~on_limit ~on_enqueue ~on_dequeue ()
