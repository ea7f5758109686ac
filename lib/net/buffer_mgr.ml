(* Pluggable buffer admission: either the historical private per-queue
   capacity (Static) or a switch-level shared memory pool governed by the
   Dynamic Threshold algorithm of Choudhury & Hahne (per-port limit =
   alpha x free pool bytes).

   alpha is quantised to alpha_x1024 = floor(alpha * 1024) at pool
   creation so the admission test on the per-packet hot path is pure
   integer arithmetic: no float compares, no allocation, and the result
   is bit-identical across machines regardless of libm. *)

type config = Static | Dynamic_threshold of { pool_bytes : int; alpha : float }

type pool = {
  size : int;
  alpha_x1024 : int;
  mutable used : int;
  mutable high_water : int;
  mutable announced : int; (* last high_water reported via poll_high_water *)
  mutable rejects : int;
  mutable metrics_registered : bool;
}

type port = {
  pool : pool option; (* [None] = private fixed-capacity buffer *)
  capacity : int; (* fixed cap (solo) / pool size (shared) *)
  mutable occ : int;
}

let solo ~capacity_bytes =
  if capacity_bytes <= 0 then
    invalid_arg "Buffer_mgr.solo: capacity must be positive";
  { pool = None; capacity = capacity_bytes; occ = 0 }

let create_pool ~pool_bytes ~alpha =
  if pool_bytes <= 0 then
    invalid_arg "Buffer_mgr.create_pool: pool size must be positive";
  let alpha_x1024 = int_of_float (alpha *. 1024.) in
  if alpha_x1024 < 1 then
    invalid_arg "Buffer_mgr.create_pool: alpha must be >= 1/1024";
  {
    size = pool_bytes;
    alpha_x1024;
    used = 0;
    high_water = 0;
    announced = 0;
    rejects = 0;
    metrics_registered = false;
  }

let attach pool = { pool = Some pool; capacity = pool.size; occ = 0 }
let shared t = match t.pool with None -> false | Some _ -> true

(* Current per-port length limit. Static ports: the fixed capacity.
   Shared ports: T = alpha x (B - used), clamped to the pool size (alpha
   > 1 over a near-empty pool would otherwise announce a limit larger
   than the memory that exists). *)
let effective_limit t =
  match t.pool with
  | None -> t.capacity
  | Some p ->
      let limit = (p.size - p.used) * p.alpha_x1024 / 1024 in
      if limit > p.size then p.size else limit

(* Hot path (called from Queue_disc.enqueue): admit and charge [size]
   bytes, or reject. The second conjunct guards pool overflow when
   alpha > 1: the threshold may exceed the free memory, but the pool
   itself never overfills. *)
let admit t size =
  match t.pool with
  | None ->
      if t.occ + size <= t.capacity then begin
        t.occ <- t.occ + size;
        true
      end
      else false
  | Some p ->
      if t.occ + size <= effective_limit t && p.used + size <= p.size then begin
        t.occ <- t.occ + size;
        p.used <- p.used + size;
        if p.used > p.high_water then p.high_water <- p.used;
        true
      end
      else begin
        p.rejects <- p.rejects + 1;
        false
      end

(* Hot path (called from Queue_disc.dequeue_exn): return [size] bytes. *)
let release t size =
  t.occ <- t.occ - size;
  match t.pool with None -> () | Some p -> p.used <- p.used - size

(* Returns the pool high-water mark if it has risen since the last poll,
   [-1] otherwise; lets the queue emit a trace event only on new peaks
   without allocating an option on the hot path. *)
let poll_high_water t =
  match t.pool with
  | None -> -1
  | Some p ->
      if p.high_water > p.announced then begin
        p.announced <- p.high_water;
        p.high_water
      end
      else -1

let occupancy t = t.occ
let pool_used t = match t.pool with None -> t.occ | Some p -> p.used

let pool_rejects t = match t.pool with None -> 0 | Some p -> p.rejects

let pool_high_water t =
  match t.pool with None -> 0 | Some p -> p.high_water

let register_metrics t metrics =
  match t.pool with
  | None -> ()
  | Some p ->
      if not p.metrics_registered then begin
        p.metrics_registered <- true;
        Obs.Metrics.probe metrics "buffer.pool_used" (fun () ->
            float_of_int p.used);
        Obs.Metrics.probe metrics "buffer.pool_high_water" (fun () ->
            float_of_int p.high_water);
        Obs.Metrics.probe metrics "buffer.pool_rejects" (fun () ->
            float_of_int p.rejects)
      end
