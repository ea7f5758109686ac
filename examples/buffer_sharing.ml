(* Shared-buffer walkthrough: what a Dynamic-Threshold memory pool does
   to admission, and how the paper's marking policies behave when their
   thresholds ride on the moving effective limit.

   Part 1 drives Net.Buffer_mgr directly: two ports contending for one
   pool, each port's admission limit shrinking as the other fills.

   Part 2 runs the long-lived dumbbell on a 1-BDP shared pool under
   DCTCP and DT-DCTCP marking at fractions of the effective limit, plus
   loss-based NewReno, which only notices the buffer when admission
   fails. Everything is seeded: every run prints the same numbers.

   Run with: dune exec examples/buffer_sharing.exe *)

module Time = Engine.Time
module B = Net.Buffer_mgr
module D = Workloads.Dumbbell

let part1 () =
  print_endline "-- Part 1: two ports, one 12 KB pool, alpha = 1 --";
  let pool = B.create_pool ~pool_bytes:12_000 ~alpha:1.0 in
  let a = B.attach pool and b = B.attach pool in
  let show step =
    Printf.printf
      "%-28s occ(a) %5d  occ(b) %5d  limit(a) %5d  limit(b) %5d\n" step
      (B.occupancy a) (B.occupancy b) (B.effective_limit a)
      (B.effective_limit b)
  in
  show "empty pool";
  (* Port a enqueues four packets; port b's limit shrinks even though b
     itself never saw a packet — the Dynamic Threshold per-port limit is
     alpha x free pool bytes (Choudhury-Hahne). *)
  for _ = 1 to 4 do
    ignore (B.admit a 1500)
  done;
  show "a holds 4 packets";
  ignore (B.admit b 1500);
  ignore (B.admit b 1500);
  show "b joins with 2";
  (* The pool is at 9000/12000: each port may only grow to the moving
     limit, so a's next admission is judged against 3000 free bytes. *)
  Printf.printf "a admits another packet? %b\n" (B.admit a 1500);
  Printf.printf "a admits a second one?   %b\n" (B.admit a 1500);
  show "pool saturating";
  (* Dequeues at either port raise everyone's limit again. *)
  B.release b 1500;
  B.release b 1500;
  show "b drained";
  Printf.printf "pool high water %d B, rejects %d\n\n" (B.pool_high_water a)
    (B.pool_rejects a)

let bdp = 125_000 (* 10 Gbps x 100 us / 8 *)

let config =
  {
    (D.default_config
       (D.Longlived
          {
            D.longlived with
            n_flows = 10;
            warmup = Time.span_of_ms 50.;
            measure = Time.span_of_ms 150.;
          }))
    with
    D.buffer_bytes = bdp;
  }

let run label proto ~buffer =
  let metrics = Obs.Metrics.create () in
  let ctx = { Workloads.Workload.bare with metrics = Some metrics; buffer } in
  let r =
    match D.run ctx proto config with
    | D.Queue r -> r
    | D.Fct _ | D.Shares _ -> invalid_arg "not a long-lived run"
  in
  let metric key =
    match List.assoc_opt key (Obs.Metrics.snapshot metrics) with
    | Some v -> int_of_float v
    | None -> 0
  in
  Printf.printf
    "%-34s queue %5.1f +- %4.1f pkts  util %.3f  drops %4d  pool peak %3d \
     pkts\n"
    label r.D.mean_queue_pkts r.D.std_queue_pkts r.D.utilization r.D.drops
    (metric "buffer.pool_high_water" / config.D.segment_bytes)

let part2 () =
  print_endline
    "-- Part 2: 10 flows, 10 Gbps dumbbell, one 1-BDP shared pool --";
  let pool = B.Dynamic_threshold { pool_bytes = bdp; alpha = 1.0 } in
  (* The scaled policies mark at fractions of the effective limit; with
     alpha = 1 and the queue parked at fraction f of the limit the
     fixed point is T = alpha x B / (1 + alpha x f), so DCTCP's K =
     0.25 x limit sits near 0.25 x 100_000 B = 16.7 packets. *)
  run "DCTCP, K = 0.25 x limit" (Dctcp.Protocol.dctcp_scaled ~k_frac:0.25 ())
    ~buffer:pool;
  (* DT-DCTCP's hysteresis band (0.20, 0.30) x limit rides the same
     moving threshold and trades a slightly lower mean for fewer
     full-band swings. *)
  run "DT-DCTCP, band (0.20,0.30) x limit"
    (Dctcp.Protocol.dt_dctcp_scaled ~k1_frac:0.2 ~k2_frac:0.3 ())
    ~buffer:pool;
  (* The loss-based competitor ignores ECN entirely: it fills the pool
     until the Dynamic Threshold rejects, loses a burst, halves once
     per episode (NewReno), and repeats — deep queues and real drops. *)
  run "NewReno (loss-based)" (Dctcp.Protocol.newreno ()) ~buffer:pool;
  (* Same transport on the historical private buffer for contrast: a
     Static queue of the same 1-BDP capacity behaves exactly as before
     the buffer manager existed. *)
  run "DCTCP, static 1-BDP buffer"
    (Dctcp.Protocol.dctcp_pkts ~k:(bdp / 4 / 1500) ())
    ~buffer:B.Static

let () =
  part1 ();
  part2 ();
  print_endline
    "\nThe full sweep (pool sizes x alpha x protocols) is the registry's\n\
     fig_buffer family: dune exec bin/dtsim.exe -- sweep --name fig_buffer -j 4"
