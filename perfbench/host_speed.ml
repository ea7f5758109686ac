(* Host-speed probe. The benchmark's host may be shared: load on the same
   physical cores slows a sweep by up to 1.6x, for seconds to minutes at
   a time, and a median over one run's sweeps cannot remove a slowdown
   that lasts the whole run. A fixed kernel with the simulator's mix of
   minor allocation and pointer chasing (inserts into an int Map) is
   timed between chunks of specs; each chunk's host seconds are scaled by
   reference_s / (the kernel's mean time around the chunk), which turns
   them into seconds on a host running at reference speed. The kernel
   uses the standard library only, so no change to the simulator moves
   it. It runs on the main domain alone, also around a parallel chunk:
   two domains allocating at once would time each other's minor
   collections rather than the host. *)

module M = Map.Make (Int)

let kernel () =
  let m = ref M.empty in
  for i = 0 to 29_999 do
    m := M.add ((i * 7919) land 0xfffff) i !m
  done;
  M.cardinal !m

(* The kernel's time on an idle 2-vCPU Xeon (Sapphire Rapids) KVM
   guest. *)
let reference_s = 0.012

let probe () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

(* Probes taken at interval boundaries. [scale c] probes, and returns the
   factor for the interval since the previous probe: reference_s over
   the mean of the probes at its two ends. *)
type clock = { mutable last : float }

let clock () = { last = probe () }

let scale c =
  let now = probe () in
  let factor = 2. *. reference_s /. (c.last +. now) in
  c.last <- now;
  factor
