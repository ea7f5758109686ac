(* Tests for the discrete-event engine: time, rng, simulator, the
   monomorphic event queue (against the reference heap in heap.ml), the
   int ring buffer, and timers. *)

module Time = Engine.Time
module Rng = Engine.Rng
module Sim = Engine.Sim
module Timer = Engine.Timer

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- Time --- *)

let test_time_conversions () =
  checkf "1s round trip" 1. (Time.to_sec (Time.of_sec 1.));
  checkf "1us" 1e-6 (Time.to_sec (Time.of_us 1.));
  checkf "1ms" 1e-3 (Time.to_sec (Time.of_ms 1.));
  check Alcotest.int "of_ns" 123
    (Time.to_int_ns (Time.of_ns (Time.span_of_int_ns 123)));
  checkf "span 2.5ms" 2.5e-3 (Time.span_to_sec (Time.span_of_ms 2.5))

let test_time_rounding () =
  (* of_sec rounds to the nearest nanosecond. *)
  check Alcotest.int "round down" 1 (Time.to_int_ns (Time.of_sec 1.4e-9));
  check Alcotest.int "round up" 2 (Time.to_int_ns (Time.of_sec 1.6e-9))

let test_time_ordering () =
  let a = Time.of_us 1. and b = Time.of_us 2. in
  checkb "lt" true Time.(a < b);
  checkb "le" true Time.(a <= a);
  check Alcotest.int "min" (Time.to_int_ns a) (Time.to_int_ns (Time.min a b));
  check Alcotest.int "min is symmetric" (Time.to_int_ns a)
    (Time.to_int_ns (Time.min b a))

let test_time_arith () =
  let t = Time.add (Time.of_us 5.) (Time.span_of_us 3.) in
  checkf "add" 8e-6 (Time.to_sec t);
  check Alcotest.int "diff" 3000
    (Time.span_to_int_ns (Time.diff t (Time.of_us 5.)));
  check Alcotest.int "diff runs backwards" (-3000)
    (Time.span_to_int_ns (Time.diff (Time.of_us 5.) t))

(* Instants and spans are immediate: building, adding and differencing
   them allocates nothing. *)
let test_time_arith_zero_alloc () =
  let t = ref Time.zero and sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let t' = Time.add !t (Time.span_of_int_ns (Sys.opaque_identity i)) in
    sum := !sum + Time.span_to_int_ns (Time.diff t' !t);
    t := t'
  done;
  let words = Gc.minor_words () -. before in
  checki "spans round-trip" (10_000 * 10_001 / 2) !sum;
  checkf "words for 10k add/diff" 0. words

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (Time.span_of_int_ns (-1))));
  checkb "negative sec raises" true
    (match Time.of_sec (-1.) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "nan raises" true
    (match Time.of_sec Float.nan with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_time_pp () =
  check Alcotest.string "ns" "500ns" (Time.to_string (Time.of_int_ns 500));
  check Alcotest.string "us" "1.500us" (Time.to_string (Time.of_int_ns 1500));
  check Alcotest.string "ms" "2.000ms" (Time.to_string (Time.of_ms 2.));
  check Alcotest.string "s" "3.000000s" (Time.to_string (Time.of_sec 3.))

(* --- Heap --- *)

let int_heap () = Heap.create ~cmp:Int.compare ()

let test_heap_basic () =
  let h = int_heap () in
  checkb "empty" true (Heap.is_empty h);
  checki "len 0" 0 (Heap.length h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  checki "len 5" 5 (Heap.length h);
  checkb "peek" true (Heap.peek h = Some 1);
  checki "pop1" 1 (Heap.pop_exn h);
  checki "pop2" 1 (Heap.pop_exn h);
  checki "pop3" 3 (Heap.pop_exn h);
  checki "len 2" 2 (Heap.length h)

let test_heap_pop_empty () =
  let h = int_heap () in
  checkb "pop none" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn raises"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_sorted_drain () =
  let h = int_heap () in
  let data = [ 9; 2; 7; 2; 0; -3; 14; 8 ] in
  List.iter (Heap.push h) data;
  check
    Alcotest.(list int)
    "to_sorted_list" (List.sort Int.compare data) (Heap.to_sorted_list h);
  (* Non destructive *)
  checki "still full" (List.length data) (Heap.length h)

let test_heap_clear () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  checkb "cleared" true (Heap.is_empty h)

let test_heap_iter () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 4; 2; 6 ];
  let sum = ref 0 in
  Heap.iter_unordered (fun x -> sum := !sum + x) h;
  checki "iter sum" 12 !sum

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap drains any list in sorted order"
    QCheck.(list int)
    (fun l ->
      let h = int_heap () in
      List.iter (Heap.push h) l;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare l)

let prop_heap_interleaved =
  QCheck.Test.make ~count:200
    ~name:"heap min is correct under interleaved push/pop"
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = int_heap () in
      let model = ref [] in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Heap.push h v;
            model := v :: !model;
            true
          end
          else begin
            match (Heap.pop h, List.sort Int.compare !model) with
            | None, [] -> true
            | Some x, m :: rest ->
                model := rest;
                x = m
            | None, _ :: _ | Some _, [] -> false
          end)
        ops)

(* --- Rng ---

   These tests create Rng streams directly: the stream type is the unit
   under test, so R10 (streams belong to owner layers) is suppressed on
   each creation line. *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in  (* dtlint: allow R10 *)
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:8L in  (* dtlint: allow R10 *)
  checkb "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_float_range () =
  let r = Rng.create ~seed:42L in  (* dtlint: allow R10 *)
  for _ = 1 to 1000 do
    let f = Rng.float r in
    checkb "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_int_range () =
  let r = Rng.create ~seed:42L in  (* dtlint: allow R10 *)
  for _ = 1 to 1000 do
    let i = Rng.int r ~bound:17 in
    checkb "in [0,17)" true (i >= 0 && i < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r ~bound:0))

let test_rng_uniform () =
  let r = Rng.create ~seed:1L in  (* dtlint: allow R10 *)
  for _ = 1 to 200 do
    let x = Rng.uniform r ~lo:3. ~hi:5. in
    checkb "uniform range" true (x >= 3. && x < 5.)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11L in  (* dtlint: allow R10 *)
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.
  done;
  let mean = !sum /. float_of_int n in
  checkb "exponential mean within 5%" true (Float.abs (mean -. 2.) < 0.1)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:3L in  (* dtlint: allow R10 *)
  let c1 = Rng.split parent in  (* dtlint: allow R10 *)
  let c2 = Rng.split parent in  (* dtlint: allow R10 *)
  checkb "children differ" true (Rng.int64 c1 <> Rng.int64 c2)

let test_rng_jitter_bounds () =
  let r = Rng.create ~seed:9L in  (* dtlint: allow R10 *)
  for _ = 1 to 500 do
    let j =
      Time.span_to_int_ns (Rng.jitter_span r ~max:(Time.span_of_int_ns 1000))
    in
    checkb "jitter in range" true (j >= 0 && j <= 1000)
  done;
  check Alcotest.int "zero max" 0
    (Time.span_to_int_ns (Rng.jitter_span r ~max:(Time.span_of_int_ns 0)))

(* --- Sim --- *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let order = ref [] in
  ignore (Sim.schedule_at sim (Time.of_us 3.) (fun () -> order := 3 :: !order));
  ignore (Sim.schedule_at sim (Time.of_us 1.) (fun () -> order := 1 :: !order));
  ignore (Sim.schedule_at sim (Time.of_us 2.) (fun () -> order := 2 :: !order));
  Sim.run sim;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !order)

let test_sim_fifo_same_instant () =
  let sim = Sim.create () in
  let order = ref [] in
  let t = Time.of_us 1. in
  for i = 1 to 5 do
    ignore (Sim.schedule_at sim t (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  check Alcotest.(list int) "FIFO at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref Time.zero in
  ignore (Sim.schedule_at sim (Time.of_us 7.) (fun () -> seen := Sim.now sim));
  Sim.run sim;
  checkf "now is event time" 7e-6 (Time.to_sec !seen)

let test_sim_schedule_after () =
  let sim = Sim.create () in
  let fired = ref Time.zero in
  ignore
    (Sim.schedule_at sim (Time.of_us 5.) (fun () ->
         ignore
           (Sim.schedule_after sim (Time.span_of_us 10.) (fun () ->
                fired := Sim.now sim))));
  Sim.run sim;
  checkf "after accumulates" 15e-6 (Time.to_sec !fired)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule_at sim (Time.of_us 1.) (fun () -> fired := true) in
  checki "pending 1" 1 (Sim.pending sim);
  Sim.cancel sim ev;
  checki "pending 0" 0 (Sim.pending sim);
  (* double cancel is a no-op *)
  Sim.cancel sim ev;
  checki "pending still 0" 0 (Sim.pending sim);
  Sim.run sim;
  checkb "not fired" false !fired;
  checki "nothing processed" 0 (Sim.events_processed sim)

let test_sim_cancel_reclaims () =
  (* Cancel-heavy schedule: cancelled events must be reclaimed (the
     wheel unlinks them immediately) instead of carried until popped. *)
  let sim = Sim.create () in
  let n = 1000 in
  let fired = ref [] in
  let evs =
    Array.init n (fun i ->
        Sim.schedule_at sim
          (Time.of_us (float_of_int (i + 1)))
          (fun () -> fired := i :: !fired))
  in
  checki "full occupancy" n (Sim.pending sim);
  let pool = Sim.event_pool_size sim in
  (* Cancel all but every 10th event, as a rearmed timer storm would. *)
  for i = 0 to n - 1 do
    if i mod 10 <> 0 then Sim.cancel sim evs.(i)
  done;
  checki "live survivors" (n / 10) (Sim.pending sim);
  (* The cancelled records are back in the pool: as many new events
     again take no new record. *)
  let refill =
    Array.init (n - (n / 10)) (fun i ->
        Sim.schedule_at sim (Time.of_us (float_of_int (n + i + 1))) ignore)
  in
  checki "cancelled records reused" pool (Sim.event_pool_size sim);
  Array.iter (Sim.cancel sim) refill;
  (* High water saw the initial burst, measured as peak live events. *)
  checki "high water is peak occupancy" n (Sim.heap_high_water sim);
  Sim.run sim;
  checki "survivors all fired" (n / 10) (List.length !fired);
  let expected = List.init (n / 10) (fun k -> n - 10 - (10 * k)) in
  checkb "survivors fired in time order" true (!fired = expected);
  checki "only survivors processed" (n / 10) (Sim.events_processed sim);
  checki "queue drained" 0 (Sim.pending sim)

(* PR 9 regression pin: on a run with no cancels the live-only high
   water must equal the occupancy-based value it replaced — the
   manifest's [engine.heap_high_water] field stays comparable across
   the change for every existing registry scenario (none of which
   leaves cancelled events unswept at their peak). *)
let test_sim_hwm_no_cancel_regression () =
  let sim = Sim.create () in
  for i = 1 to 37 do
    ignore (Sim.schedule_at sim (Time.of_us (float_of_int i)) (fun () -> ()))
  done;
  checki "high water equals the pre-change peak" 37 (Sim.heap_high_water sim);
  Sim.run sim;
  checki "draining does not move it" 37 (Sim.heap_high_water sim)

(* Cancelled events must not count toward the high water, past the
   wheel's 2^35 ns (≈34.4 s) horizon included: 10 far events of which 9
   are cancelled, then 5 near ones, peak at 10 live, not 15. *)
let test_sim_hwm_counts_live_only () =
  let sim = Sim.create () in
  let far i = Time.of_sec (40.0 +. (0.001 *. float_of_int i)) in
  let ids =
    Array.init 10 (fun i -> Sim.schedule_at sim (far i) (fun () -> ()))
  in
  Array.iteri (fun i id -> if i > 0 then Sim.cancel sim id) ids;
  checki "cancelled far events are gone at once" 1 (Sim.pending sim);
  for i = 0 to 4 do
    ignore
      (Sim.schedule_at sim (Time.of_us (float_of_int (20 + i))) (fun () -> ()))
  done;
  checki "pending counts the live events" 6 (Sim.pending sim);
  checki "high water counts live events only" 10 (Sim.heap_high_water sim)

(* A bounded run leaves the clock at its deadline, before an event that
   is already pending; scheduling between the two must still work and
   keep (time, seq) order. *)
let test_sim_schedule_after_bounded_run () =
  let sim = Sim.create () in
  let fired = ref [] in
  let at us tag =
    ignore
      (Sim.schedule_at sim (Time.of_us us) (fun () ->
           fired := (tag, Time.to_int_ns (Sim.now sim)) :: !fired))
  in
  at 20. "a";
  Sim.run ~until:(Time.of_us 10.) sim;
  checki "nothing due by 10 us" 0 (List.length !fired);
  at 15. "b";
  at 15. "c";
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "15 us, 15 us, then 20 us, in schedule order"
    [ ("b", 15_000); ("c", 15_000); ("a", 20_000) ]
    (List.rev !fired)

let test_sim_run_until_no_overshoot () =
  (* A not-yet-swept cancelled root must not let [run ~until] overshoot:
     its key is inside the deadline, but the event [step] would actually
     fire lies past it and must stay queued. *)
  let sim = Sim.create () in
  let fired = ref false in
  let dead = Sim.schedule_at sim (Time.of_us 5.) ignore in
  ignore (Sim.schedule_at sim (Time.of_us 10.) (fun () -> fired := true));
  Sim.cancel sim dead;
  Sim.run ~until:(Time.of_us 7.) sim;
  checkb "live event past the deadline did not fire" false !fired;
  checkf "clock rests at the deadline" 7e-6 (Time.to_sec (Sim.now sim));
  Sim.run ~until:(Time.of_us 20.) sim;
  checkb "fires once the deadline covers it" true !fired

(* The raisers sit in out-of-line helpers (the checks are inlined into
   every schedule); each keeps its exception and its message. *)
let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim (Time.of_us 5.) (fun () -> ()));
  Sim.run sim;
  let past = Invalid_argument "Sim.schedule_at: 1.000us is before now (5.000us)" in
  Alcotest.check_raises "one-shot in the past" past (fun () ->
      ignore (Sim.schedule_at sim (Time.of_us 1.) (fun () -> ())));
  let a = Sim.action sim ~cls:0 ignore in
  Alcotest.check_raises "action in the past" past (fun () ->
      ignore (Sim.schedule_action_at sim (Time.of_us 1.) a));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule_after: negative delay") (fun () ->
      ignore (Sim.schedule_action_after sim (Time.span_of_int_ns (-1)) a));
  Alcotest.check_raises "unregistered action"
    (Invalid_argument "Event_queue.add_action: not a registered action")
    (fun () ->
      ignore (Sim.schedule_action_at sim (Time.of_us 6.) Sim.no_action));
  checki "nothing was scheduled" 0 (Sim.pending sim)

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Sim.schedule_at sim (Time.of_us (float_of_int i)) (fun () -> incr count))
  done;
  Sim.run ~until:(Time.of_us 5.) sim;
  checki "half processed" 5 !count;
  checkf "clock at until" 5e-6 (Time.to_sec (Sim.now sim));
  checki "half pending" 5 (Sim.pending sim);
  Sim.run sim;
  checki "rest processed" 10 !count

let test_sim_until_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule_at sim (Time.of_us 5.) (fun () -> fired := true));
  Sim.run ~until:(Time.of_us 5.) sim;
  checkb "event at boundary fires" true !fired

let test_sim_until_advances_clock_when_idle () =
  let sim = Sim.create () in
  Sim.run ~until:(Time.of_ms 1.) sim;
  checkf "clock moved" 1e-3 (Time.to_sec (Sim.now sim))

let test_sim_step () =
  let sim = Sim.create () in
  checkb "step on empty" false (Sim.step sim);
  ignore (Sim.schedule_at sim (Time.of_us 1.) (fun () -> ()));
  checkb "step runs" true (Sim.step sim);
  checkb "empty again" false (Sim.step sim)

let test_sim_events_processed () =
  let sim = Sim.create () in
  for i = 1 to 7 do
    ignore (Sim.schedule_at sim (Time.of_us (float_of_int i)) (fun () -> ()))
  done;
  Sim.run sim;
  checki "events" 7 (Sim.events_processed sim)

(* A self-expanding schedule (children at delays across every wheel
   level and past the 2^35 ns horizon, random cancels) driven by the
   simulation's own RNG: any difference in firing order would also
   change every later draw. Returns the fired (time, tag) sequence. *)
let branching_run ~seed ~slices =
  let sim = Sim.create ~seed () in
  let rng = Sim.rng sim in
  let log = ref [] in
  let next_tag = ref 0 in
  let ids = ref [] in
  let rec spawn depth =
    let tag = !next_tag in
    incr next_tag;
    let scale = Rng.int rng ~bound:7 in
    let delay =
      Time.span_of_int_ns (Rng.int rng ~bound:1_000 lsl (5 * scale))
    in
    let id =
      Sim.schedule_after sim delay (fun () ->
          log := (Time.to_int_ns (Sim.now sim), tag) :: !log;
          if depth < 4 then begin
            spawn (depth + 1);
            if Rng.int rng ~bound:2 = 1 then spawn (depth + 1)
          end;
          match !ids with
          | l when Rng.int rng ~bound:4 = 0 ->
              Sim.cancel sim (List.nth l (Rng.int rng ~bound:(List.length l)))
          | _ -> ())
    in
    ids := id :: !ids
  in
  for _ = 1 to 16 do
    spawn 0
  done;
  let stop = ref 0 in
  List.iter
    (fun w ->
      stop := !stop + w;
      Sim.run ~until:(Time.of_int_ns !stop) sim)
    slices;
  Sim.run sim;
  List.rev !log

let prop_sim_sliced_run_matches_unsliced =
  QCheck.Test.make ~count:100
    ~name:"sliced run ~until fires the same (time, order) sequence"
    QCheck.(
      pair small_nat
        (list_of_size
           Gen.(int_range 1 40)
           (pair (int_bound 6) (int_bound 1_000))))
    (fun (seed, widths) ->
      let seed = Int64.of_int (seed + 1) in
      let slices = List.map (fun (s, v) -> (v lsl (5 * s)) + 1) widths in
      branching_run ~seed ~slices:[] = branching_run ~seed ~slices)

(* --- Timer --- *)

let test_timer_fires () =
  let sim = Sim.create () in
  let fired = ref Time.zero in
  let t = Timer.create sim ~action:(fun () -> fired := Sim.now sim) in
  Timer.set t ~after:(Time.span_of_us 50.);
  checkb "pending" true (Timer.is_pending t);
  Sim.run sim;
  checkf "fired at deadline" 50e-6 (Time.to_sec !fired);
  checkb "idle after" false (Timer.is_pending t)

let test_timer_rearm_replaces () =
  let sim = Sim.create () in
  let count = ref 0 in
  let t = Timer.create sim ~action:(fun () -> incr count) in
  Timer.set t ~after:(Time.span_of_us 10.);
  Timer.set t ~after:(Time.span_of_us 20.);
  Sim.run sim;
  checki "fires once" 1 !count;
  checkf "clock at second deadline" 20e-6 (Time.to_sec (Sim.now sim))

let test_timer_cancel () =
  let sim = Sim.create () in
  let count = ref 0 in
  let t = Timer.create sim ~action:(fun () -> incr count) in
  Timer.set t ~after:(Time.span_of_us 10.);
  Timer.cancel t;
  checkb "idle" false (Timer.is_pending t);
  Sim.run sim;
  checki "never fires" 0 !count

let test_timer_deadline () =
  let sim = Sim.create () in
  let t = Timer.create sim ~action:(fun () -> ()) in
  checkb "no deadline" true (Timer.deadline t = None);
  Timer.set t ~after:(Time.span_of_us 42.);
  (match Timer.deadline t with
  | Some d -> checkf "deadline" 42e-6 (Time.to_sec d)
  | None -> Alcotest.fail "expected deadline");
  Timer.cancel t

let test_timer_periodic_reuse () =
  let sim = Sim.create () in
  let count = ref 0 in
  let tmr = ref None in
  let action () =
    incr count;
    if !count < 5 then
      match !tmr with
      | Some t -> Timer.set t ~after:(Time.span_of_us 10.)
      | None -> ()
  in
  let t = Timer.create sim ~action in
  tmr := Some t;
  Timer.set t ~after:(Time.span_of_us 10.);
  Sim.run sim;
  checki "five firings" 5 !count;
  checkf "50us elapsed" 50e-6 (Time.to_sec (Sim.now sim))

let prop_sim_fires_in_time_order =
  QCheck.Test.make ~count:200 ~name:"events fire in non-decreasing time order"
    QCheck.(list_of_size Gen.(int_range 0 60) (int_bound 100_000))
    (fun delays_us ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter
        (fun us ->
          ignore
            (Sim.schedule_at sim
               (Time.of_us (float_of_int us))
               (fun () -> fired := Time.to_int_ns (Sim.now sim) :: !fired)))
        delays_us;
      Sim.run sim;
      let order = List.rev !fired in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) ->
            a <= b && non_decreasing rest
        | [] | [ _ ] -> true
      in
      List.length order = List.length delays_us && non_decreasing order)

(* --- Event_queue --- *)

module Eq = Engine.Event_queue

(* Drive the monomorphic queue and a naive model (hashtable of live
   events, min found by scan) through the same trace and demand the
   same observable behaviour: pop order, popped times, cancel results.
   The model keys events by schedule order, which is exactly the
   queue's [seq] tie-break, so the expected order is total. A trace's
   key [v] is an offset from the last popped key, the one clock the
   queue promises an add may start from. *)
let run_event_queue_trace ops =
  let q = Eq.create () in
  let base = ref 0 in
  let ids = ref [] (* (tag, id), newest first *) in
  let n_issued = ref 0 in
  let model = Hashtbl.create 64 (* tag -> key_ns, live events only *) in
  let fired = ref (-1) in
  let ok = ref true in
  let model_min () =
    Hashtbl.fold
      (fun tag key acc ->
        match acc with
        | Some (k, tg) when k < key || (k = key && tg < tag) -> acc
        | _ -> Some (key, tag))
      model None
  in
  let do_pop () =
    match (Eq.pop q, model_min ()) with
    | false, None -> ()
    | true, Some (key, tag) ->
        fired := -1;
        (Eq.popped_action q) ();
        if !fired <> tag then ok := false;
        if Time.to_int_ns (Eq.popped_time q) <> key then
          ok := false;
        base := key;
        Hashtbl.remove model tag
    | true, None | false, Some _ -> ok := false
  in
  List.iter
    (fun (kind, v) ->
      match kind with
      | 0 ->
          let tag = !n_issued in
          incr n_issued;
          let key = !base + v in
          let id =
            Eq.add q ~time:(Time.of_int_ns key) (fun () ->
                fired := tag)
          in
          ids := (tag, id) :: !ids;
          Hashtbl.replace model tag key
      | 1 -> (
          match !ids with
          | [] -> ()
          | l ->
              let tag, id = List.nth l (v mod List.length l) in
              let was_live = Hashtbl.mem model tag in
              let cancelled = Eq.cancel q id in
              if cancelled <> was_live then ok := false;
              if cancelled then Hashtbl.remove model tag)
      | _ -> do_pop ())
    ops;
  (* Drain whatever is left; the guard keeps a broken queue from
     spinning instead of failing. *)
  let guard = ref (List.length ops + 1) in
  while !ok && (Eq.live q > 0 || Hashtbl.length model > 0) && !guard > 0 do
    decr guard;
    do_pop ()
  done;
  !ok && Eq.live q = 0 && Hashtbl.length model = 0

let prop_event_queue_matches_model =
  QCheck.Test.make ~count:300
    ~name:"Event_queue matches a naive model on schedule/cancel/pop traces"
    QCheck.(
      list_of_size
        Gen.(int_range 0 200)
        (pair (int_bound 2) (int_bound 1_000)))
    run_event_queue_trace

(* Cancel-heavy traces: bias the op mix so live events accumulate into
   the hundreds and cancels then outnumber the survivors, exercising
   unlinks from every position of a bucket list. *)
let prop_event_queue_cancel_heavy =
  QCheck.Test.make ~count:100
    ~name:"Event_queue survives cancel-then-compact interleavings"
    QCheck.(
      list_of_size
        Gen.(int_range 100 400)
        (pair (int_bound 8) (int_bound 1_000)))
    (fun raw ->
      (* kinds 0-4 schedule, 5-7 cancel, 8 pops: schedules outnumber
         cancels early (occupancy crosses 64), cancels hit a deep heap. *)
      let ops =
        List.map
          (fun (k, v) -> ((if k <= 4 then 0 else if k <= 7 then 1 else 2), v))
          raw
      in
      run_event_queue_trace ops)

(* Mixed-magnitude keys: [v lsl (5 s)] places events across every wheel
   level and (for s = 6, v >= 32) beyond the 2^35 ns horizon, so the same model
   equivalence also covers cascade boundaries and far-bucket jumps —
   the paths small-key traces miss.
   The in-tick offset [o] (0-31 ns) and the frequent small [v] put
   several distinct keys into one 32 ns tick, at every level, in random
   key and seq order: cascaded and direct arrivals then meet occupied
   bottom buckets holding later keys, and must sort by (key, seq). *)
let prop_event_queue_large_keys =
  QCheck.Test.make ~count:200
    ~name:"Event_queue matches the model across wheel levels and overflow"
    QCheck.(
      map
        (List.map (fun (k, (s, v, o)) -> (k, (v lsl (5 * s)) + v + o)))
        (list_of_size
           Gen.(int_range 0 120)
           (pair (int_bound 2)
              (triple (int_bound 6)
                 (make Gen.(frequency [ (3, int_bound 2_000); (1, int_bound 8) ]))
                 (int_bound 31)))))
    run_event_queue_trace

(* Same game against the generic [Heap] the simulator used before: the
   reference orders (key, seq) pairs with a comparison closure and
   models cancellation as a skip-set consulted at pop, which is exactly
   the old engine's scheme. Kind 0 adds an event keyed [key base v],
   kind 1 cancels a handle picked by [v], kind 2 calls [pop_until] with
   the deadline [key base v] ([max_int] unless [bounded]): it must fire
   exactly the reference's live minimum when that key is at or before
   the deadline and fire nothing otherwise. [base] is the clock a
   caller of the queue keeps: the last popped key, or a later deadline
   that fired nothing, so every add is at or after the position. *)
let heap_oracle_trace ?(key = ( + )) ~bounded ops =
  let q = Eq.create () in
  let base = ref 0 in
  let cmp (k1, s1) (k2, s2) =
    if k1 <> k2 then Int.compare k1 k2 else Int.compare s1 s2
  in
  let h = Heap.create ~capacity:4 ~cmp () in
  let cancelled = Hashtbl.create 16 in
  let ids = ref [] in
  let n = ref 0 in
  let fired = ref (-1) in
  let ok = ref true in
  let rec heap_peek () =
    match Heap.peek h with
    | Some (_, s) when Hashtbl.mem cancelled s ->
        ignore (Heap.pop h);
        heap_peek ()
    | other -> other
  in
  let do_pop stop =
    let due =
      match heap_peek () with
      | Some (k, _) as m when k <= stop -> m
      | _ -> None
    in
    match (Eq.pop_until q stop, due) with
    | false, None -> if stop <> max_int then base := Int.max !base stop
    | true, Some (k, s) ->
        ignore (Heap.pop h);
        fired := -1;
        (Eq.popped_action q) ();
        if !fired <> s then ok := false;
        if Time.to_int_ns (Eq.popped_time q) <> k then ok := false;
        base := k
    | true, None | false, Some _ -> ok := false
  in
  List.iter
    (fun (kind, v) ->
      match kind with
      | 0 ->
          let s = !n in
          incr n;
          let k = key !base v in
          let id = Eq.add q ~time:(Time.of_int_ns k) (fun () -> fired := s) in
          Heap.push h (k, s);
          ids := (s, id) :: !ids
      | 1 -> (
          match !ids with
          | [] -> ()
          | l ->
              let s, id = List.nth l (v mod List.length l) in
              if Eq.cancel q id then Hashtbl.replace cancelled s ())
      | _ -> do_pop (if bounded then key !base v else max_int))
    ops;
  let guard = ref (List.length ops + 1) in
  while !ok && Eq.live q > 0 && !guard > 0 do
    decr guard;
    do_pop max_int
  done;
  !ok && Eq.live q = 0 && heap_peek () = None

let prop_event_queue_matches_heap =
  QCheck.Test.make ~count:200
    ~name:"Event_queue pop order equals the generic reference Heap's"
    QCheck.(
      list_of_size
        Gen.(int_range 0 150)
        (pair (int_bound 2) (int_bound 500)))
    (heap_oracle_trace ~bounded:false)

(* Random deadlines: keys and deadlines mix every wheel level and the
   beyond-horizon range (as in the large-keys property), so deadlines
   fall on both sides of pending events, of upper-level spans and of
   far-bucket keys, and adds land between a deadline and what it left
   pending. *)
let prop_event_queue_pop_until_matches_heap =
  QCheck.Test.make ~count:300
    ~name:"Event_queue.pop_until fires exactly the live events due by stop"
    QCheck.(
      map
        (List.map (fun (k, (s, v)) -> (k, (v lsl (5 * s)) + v)))
        (list_of_size
           Gen.(int_range 0 200)
           (pair (int_bound 2) (pair (int_bound 6) (int_bound 2_000)))))
    (heap_oracle_trace ~bounded:true)

(* Keys aimed at the wide bottom level's bitmap and the horizon: [Word]
   keys sit within a few ticks of a 1024 ns occupancy-word edge, [Spread]
   keys land anywhere in the 32.8 us bottom span (all 32 words, so pops
   empty the summary word and later adds refill it), and [Horizon] keys
   straddle a multiple of 2^35 ns (the far-bucket edge). Each family is
   offset from a block: [bitmap_at] adds it to the clock's 32.8 us span
   (2^35 ns block for [Horizon] keys), so the edges stay aligned as the
   clock moves; a key that would fall before the clock is the clock,
   which makes same-instant groups. Deadlines are drawn the same way, in
   every (kind, deadline) interleaving the oracle checks. *)
let bitmap_key =
  QCheck.Gen.(
    let word = map2 (fun w o -> Int.max 0 ((w * 1024) + o)) (int_bound 40) (int_range (-40) 40) in
    let spread = int_bound 32_767 in
    let horizon =
      map2 (fun k o -> Int.max 0 ((k lsl 35) + o)) (int_range 1 2) (int_range (-2_000) 2_000)
    in
    map2 ( + )
      (frequency [ (3, return 0); (1, map (fun b -> b lsl 15) (int_bound 3)) ])
      (frequency [ (3, word); (3, spread); (2, horizon) ]))

let bitmap_at base v =
  let align = if v >= 1 lsl 34 then 35 else 15 in
  Int.max base (((base lsr align) lsl align) + v)

let prop_event_queue_bitmap_edges =
  QCheck.Test.make ~count:300
    ~name:"Event_queue matches the heap across bitmap words and the 2^35 edge"
    QCheck.(
      make
        Gen.(list_size (int_range 0 200) (pair (int_bound 2) bitmap_key)))
    (heap_oracle_trace ~key:bitmap_at ~bounded:true)

(* A lone past-horizon event beyond the deadline must stay parked:
   jumping to its block would move the wheel position to its key, and
   an event scheduled afterwards between the deadline and that key
   would then be refused as dated before the position. *)
let test_event_queue_pop_until_keeps_overflow () =
  let q = Eq.create () in
  ignore (Eq.add q ~time:(Time.of_int_ns (3 lsl 35)) ignore);
  checkb "nothing due by 2^35 ns" false (Eq.pop_until q (1 lsl 35));
  ignore (Eq.add q ~time:(Time.of_int_ns 100) ignore);
  checkb "the wheel event fires by its deadline" true (Eq.pop_until q 100);
  checkb "overflow event fires once due" true (Eq.pop_until q (3 lsl 35));
  checkb "queue empty" false (Eq.pop q)

let test_event_queue_compaction_sweep () =
  let q = Eq.create () in
  let fired = ref [] in
  let ids =
    List.init 200 (fun i ->
        Eq.add q ~time:(Time.of_int_ns i) (fun () ->
            fired := i :: !fired))
  in
  (* Cancel 150 of 200: every one is wheel-resident, so each cancel
     unlinks and recycles its slot on the spot — no corpses at all. *)
  List.iteri (fun i id -> if i mod 4 <> 0 then ignore (Eq.cancel q id)) ids;
  checki "live survivors" 50 (Eq.live q);
  while Eq.pop q do
    (Eq.popped_action q) ()
  done;
  let order = List.rev !fired in
  checki "all survivors fired" 50 (List.length order);
  checkb "in schedule order" true (order = List.sort Int.compare order)

let test_event_queue_stale_cancel () =
  let q = Eq.create () in
  let id = Eq.add q ~time:(Time.of_int_ns 5) ignore in
  checkb "pop fires it" true (Eq.pop q);
  (* The record is back in the pool; the old id must now be inert. *)
  checkb "stale id rejected" false (Eq.cancel q id);
  let id2 = Eq.add q ~time:(Time.of_int_ns 7) ignore in
  checkb "slot reuse keeps new id valid" true (Eq.cancel q id2)

(* Wheel-resident cancels must free their pool slots on the spot:
   scheduling into the freed slots may not grow the pool, and the queue
   must stay fully usable after draining to empty. *)
let test_event_queue_wheel_cancel_reclaims () =
  let q = Eq.create () in
  let ids =
    Array.init 200 (fun i ->
        Eq.add q ~time:(Time.of_int_ns (i * 3)) ignore)
  in
  let pool0 = Eq.pool_size q in
  Array.iteri (fun i id -> if i mod 4 <> 0 then ignore (Eq.cancel q id)) ids;
  checki "live survivors" 50 (Eq.live q);
  for i = 0 to 149 do
    ignore (Eq.add q ~time:(Time.of_int_ns (1000 + i)) ignore)
  done;
  checki "freed slots reused, pool not grown" pool0 (Eq.pool_size q);
  while Eq.pop q do
    ()
  done;
  checki "drained" 0 (Eq.live q);
  ignore (Eq.add q ~time:(Time.of_int_ns 5000) ignore);
  checkb "still pops after draining to empty" true (Eq.pop q)

(* Far-future events (beyond the 2^35 ns wheel horizon) wait in the far
   bucket, where a cancel is the same O(1) unlink as in the wheel: the
   record is back in the pool at once. The survivors span two horizon
   blocks, added out of key order, with a same-instant group in each;
   they fire in (key, seq) order, the second block only once the first
   has drained. *)
let test_event_queue_far_bucket () =
  let q = Eq.create () in
  let fired = ref [] in
  let added = ref [] in
  let add ns =
    let tag = List.length !added in
    added := (ns, tag) :: !added;
    Eq.add q ~time:(Time.of_int_ns ns) (fun () -> fired := tag :: !fired)
  in
  let block k = k lsl 35 in
  let doomed = Array.init 40 (fun i -> add (block 2 + (i * 7))) in
  let pool = Eq.pool_size q in
  Array.iter (fun id -> ignore (Eq.cancel q id)) doomed;
  checki "cancels leave nothing live" 0 (Eq.live q);
  added := [];
  List.iter
    (fun ns -> ignore (add ns))
    [
      block 3 + 500; block 2 + 900; block 3 + 5; block 2 + 900; block 2 + 1;
      block 3 + 500; block 2 + (1 lsl 30); block 3 + 5; block 2 + 900;
      block 2 + 64;
    ];
  checki "cancelled records reused, pool not grown" pool (Eq.pool_size q);
  checki "live" 10 (Eq.live q);
  checkb "nothing due before the first block" false
    (Eq.pop_until q (block 2));
  while Eq.pop q do
    (Eq.popped_action q) ()
  done;
  let expected =
    List.rev !added
    |> List.stable_sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)
    |> List.map snd
  in
  Alcotest.(check (list int))
    "(key, seq) order across two horizon blocks" expected (List.rev !fired)

(* The wheel's position is the one time an add may not precede: after a
   pop it is the popped key. An earlier add raises and leaves the queue
   as it was; an add at the position itself is fine. *)
let test_event_queue_add_before_position () =
  let q = Eq.create () in
  let a = Eq.register q ~cls:0 ignore in
  ignore (Eq.add q ~time:(Time.of_int_ns 1000) ignore);
  ignore (Eq.add q ~time:(Time.of_int_ns 1500) ignore);
  checkb "advance the wheel to t=1000" true (Eq.pop q);
  let pool = Eq.pool_size q in
  let raises f =
    match f () with
    | (_ : Eq.id) -> false
    | exception Invalid_argument _ -> true
  in
  checkb "a one-shot before the position raises" true
    (raises (fun () -> Eq.add q ~time:(Time.of_int_ns 999) ignore));
  checkb "a registered action before the position raises" true
    (raises (fun () -> Eq.add_action q ~time:(Time.of_int_ns 5) a));
  checki "the refused adds left nothing live" 1 (Eq.live q);
  checki "nor took a record" pool (Eq.pool_size q);
  ignore (Eq.add_action q ~time:(Time.of_int_ns 1000) a);
  checkb "an add at the position fires" true (Eq.pop q);
  checki "at the position" 1000 (Time.to_int_ns (Eq.popped_time q));
  checkb "then the pending one" true (Eq.pop q);
  checki "in key order" 1500 (Time.to_int_ns (Eq.popped_time q))

(* Keys on every bucket edge of the wheel — the 32 ns tick (31/32/33,
   63/64), the bottom level's occupancy-word edge (1023/1024/1025), each
   level boundary (2^15, 2^20, 2^25, 2^30, +-1) and the overflow horizon
   (2^35) — plus a same-instant group parked four levels up and two
   groups of distinct keys inside one 32 ns tick, added in reverse key
   order: one straight into a bottom bucket, one cascading down from
   level 3. Everything must fire in (key, seq) order, which means the
   cascade path re-files events correctly at each level crossing and
   bottom buckets sort by key first, seq second. *)
let test_event_queue_cascade_boundaries () =
  let q = Eq.create () in
  let fired = ref [] in
  let added = ref [] in
  let add ns =
    let tag = List.length !added in
    added := (ns, tag) :: !added;
    ignore
      (Eq.add q
         ~time:(Time.of_int_ns ns)
         (fun () -> fired := tag :: !fired))
  in
  List.iter add
    [
      31; 32; 33; 63; 64; 1023; 1024; 1025; 32767; 32768; 32769;
      (1 lsl 20) - 1; 1 lsl 20; (1 lsl 20) + 1; (1 lsl 25) - 1;
      (1 lsl 25) + 1; (1 lsl 25) + 7; (1 lsl 30) - 1; 1 lsl 30;
      (1 lsl 30) + 1; (1 lsl 35) - 1; 1 lsl 35; (1 lsl 35) + 1;
    ];
  List.iter add [ 1 lsl 30; 1 lsl 30; 1 lsl 30 ];
  List.iter add [ 62; 57; 50; 48; 57 ];
  let tick = (3 lsl 25) + (5 lsl 20) + (7 lsl 5) in
  List.iter (fun o -> add (tick + o)) [ 31; 20; 20; 9; 0 ];
  while Eq.pop q do
    (Eq.popped_action q) ()
  done;
  let expected =
    List.rev !added
    |> List.stable_sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)
    |> List.map snd
  in
  Alcotest.(check (list int))
    "(key, seq) order across every bucket edge" expected (List.rev !fired)

(* The schedule/pop fast path — pre-boxed times, wheel-resident keys —
   must allocate nothing at all: adds are a level computation plus a
   list append, pops a bitmask scan plus an unlink, and the pool
   recycles every record. 64k events through a warm queue must cost
   zero minor words (the budget below tolerates only the measurement's
   own boxed-float readings). *)
let test_event_queue_zero_alloc_fast_path () =
  let q = Eq.create () in
  let n = 1 lsl 16 in
  let times =
    Array.init n (fun i -> Time.of_int_ns ((i + 1) * 150))
  in
  (* Warm the pool past the working set: 64 pending events, plus the
     record of the last popped one-shot, which goes back to the free list
     only at the next pop. *)
  for i = 0 to 64 do
    ignore (Eq.add q ~time:times.(i) ignore)
  done;
  while Eq.pop q do
    ()
  done;
  let before = Gc.minor_words () in
  let i = ref 65 in
  while !i + 64 <= n do
    for k = !i to !i + 63 do
      ignore (Eq.add q ~time:times.(k) ignore)
    done;
    for _ = 1 to 64 do
      ignore (Eq.pop q)
    done;
    i := !i + 64
  done;
  let delta = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "fast path allocated %.0f words for %d events" delta n)
    true (delta < 64.)

(* Steady-state schedule->pop churn through the pool allocates nothing:
   spans and instants are immediate, and events live in the pool. It
   reads 0.0 words/event in the default build and under --profile dev.
   The budget (0.25 words/event) leaves room for an amortised resize
   but not for one box per event (2 words or more), so a pooling or
   representation regression trips it. *)
let test_event_queue_alloc_regression () =
  let sim = Sim.create () in
  let left = ref 0 in
  let rec act () =
    decr left;
    if !left > 0 then ignore (Sim.schedule_after sim (Time.span_of_us 1.) act)
  in
  let churn n =
    left := n;
    ignore (Sim.schedule_after sim (Time.span_of_us 1.) act);
    Sim.run sim
  in
  churn 1_000 (* warm the pool and heap *);
  let pool0 = Sim.event_pool_size sim in
  let before = Gc.minor_words () in
  let n = 20_000 in
  churn n;
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  checkb
    (Printf.sprintf "%.2f words/event within budget" per_event)
    true
    (per_event <= 0.25);
  checki "pool is steady under churn" pool0 (Sim.event_pool_size sim)

(* --- event classes and the profiler hooks --- *)

let test_event_queue_cls () =
  let q = Eq.create () in
  ignore (Eq.add_cls q ~time:(Time.of_int_ns 10) ~cls:3 ignore);
  ignore (Eq.add q ~time:(Time.of_int_ns 20) ignore);
  ignore (Eq.add_cls q ~time:(Time.of_int_ns 30) ~cls:5 ignore);
  checkb "pop 1" true (Eq.pop q);
  checki "tagged class comes back" 3 (Eq.popped_cls q);
  checkb "pop 2" true (Eq.pop q);
  checki "plain add defaults to class 0" 0 (Eq.popped_cls q);
  checkb "pop 3" true (Eq.pop q);
  checki "pooled slot re-tagged, not recycled" 5 (Eq.popped_cls q)

(* Registered actions: the class comes from the registration, the same
   index fires each time it is scheduled, and only registered indices
   are accepted. *)
let test_event_queue_actions () =
  let q = Eq.create () in
  let log = ref [] in
  let a = Eq.register q ~cls:2 (fun () -> log := "a" :: !log) in
  let b = Eq.register q ~cls:4 (fun () -> log := "b" :: !log) in
  ignore (Eq.add_action q ~time:(Time.of_int_ns 10) b);
  ignore (Eq.add q ~time:(Time.of_int_ns 10) (fun () -> log := "once" :: !log));
  ignore (Eq.add_action q ~time:(Time.of_int_ns 10) a);
  ignore (Eq.add_action q ~time:(Time.of_int_ns 5) a);
  let classes = ref [] in
  while Eq.pop q do
    classes := Eq.popped_cls q :: !classes;
    (Eq.popped_action q) ()
  done;
  Alcotest.(check (list string))
    "(time, schedule order) across actions and one-shots"
    [ "a"; "b"; "once"; "a" ] (List.rev !log);
  Alcotest.(check (list int)) "classes from the registration" [ 2; 4; 0; 2 ]
    (List.rev !classes);
  Alcotest.check_raises "no_action is rejected"
    (Invalid_argument "Event_queue.add_action: not a registered action")
    (fun () -> ignore (Eq.add_action q ~time:(Time.of_int_ns 20) Eq.no_action));
  let other = Eq.create () in
  ignore (Eq.register other ~cls:0 ignore);
  ignore (Eq.register other ~cls:0 ignore);
  let foreign = Eq.register other ~cls:0 ignore in
  Alcotest.check_raises "another queue's index is rejected"
    (Invalid_argument "Event_queue.add_action: not a registered action")
    (fun () -> ignore (Eq.add_action q ~time:(Time.of_int_ns 20) foreign))

(* Re-arming a registered action is the hot path of every port and
   timer: cancel, add_action and pop store immediates only, so a warm
   queue runs 64k re-arms and fires in zero minor words (the budget
   tolerates only the measurement's own boxed-float readings). *)
let test_event_queue_action_rearm_allocates_nothing () =
  let q = Eq.create () in
  let fired = ref 0 in
  let a = Eq.register q ~cls:1 (fun () -> incr fired) in
  let n = 1 lsl 16 in
  let id = ref (Eq.add_action q ~time:(Time.of_int_ns 100) a) in
  let before = Gc.minor_words () in
  for i = 1 to n do
    (* a timer re-arm: cancel the pending event, schedule a later one *)
    ignore (Eq.cancel q !id);
    id := Eq.add_action q ~time:(Time.of_int_ns ((i * 150) + 1_000)) a;
    if i land 1 = 0 && Eq.pop q then (Eq.popped_action q) ()
  done;
  let delta = Gc.minor_words () -. before in
  checki "every other re-arm fired" (n / 2) !fired;
  checkb
    (Printf.sprintf "re-arm path allocated %.0f words for %d re-arms" delta n)
    true (delta < 64.);
  checkb "pool stays tiny" true (Eq.pool_size q <= 8)

(* A one-shot closure must not outlive its event: once it fired (and the
   next pop let go of the popped register) or was cancelled — in the
   wheel or past its horizon — the 4 KB string it captured is garbage, which a
   finaliser on each string counts after a full major collection. *)
let test_event_queue_oneshot_reclaim () =
  let q = Eq.create () in
  let sink = ref 0 and freed = ref 0 in
  let add_payload ns i =
    let p = String.make 4096 (Char.chr (i land 0xff)) in
    Gc.finalise (fun _ -> incr freed) p;
    Eq.add q ~time:(Time.of_int_ns ns) (fun () -> sink := !sink + String.length p)
  in
  let wheel = Array.init 64 (fun i -> add_payload (100 + i) i) in
  let far = Array.init 64 (fun i -> add_payload ((1 lsl 36) + i) i) in
  checkb "pending one-shots are held" true
    (Obj.reachable_words (Obj.repr q) > 128 * 512);
  let cancel_evens = Array.iteri (fun i id -> if i mod 2 = 0 then ignore (Eq.cancel q id)) in
  cancel_evens wheel;
  cancel_evens far;
  Gc.full_major ();
  checki "cancels dropped their closures" 64 !freed;
  while Eq.pop q do
    (Eq.popped_action q) ()
  done;
  checki "the survivors ran" (64 * 4096) !sink;
  Gc.full_major ();
  checki "fired one-shots dropped" 128 !freed;
  (* [q] stays reachable through both collections: it is used here. *)
  checki "the queue is empty, not gone" 0 (Eq.live q)

(* Ids carry a generation: once an event fired or was cancelled its id
   is inert, even after the record is reused by a registered action or a
   one-shot, and cancelling a stale id never touches the new occupant. *)
let test_event_queue_stale_generation () =
  let q = Eq.create () in
  let fired = ref 0 in
  let a = Eq.register q ~cls:0 (fun () -> incr fired) in
  let id1 = Eq.add_action q ~time:(Time.of_int_ns 10) a in
  checkb "fires" true (Eq.pop q);
  (Eq.popped_action q) ();
  let id2 = Eq.add_action q ~time:(Time.of_int_ns 20) a in
  checkb "the reused slot holds the new event" true
    (Eq.pool_size q = 1);
  checkb "fired id is stale" false (Eq.cancel q id1);
  checki "the new occupant stays live" 1 (Eq.live q);
  checkb "cancel the live one" true (Eq.cancel q id2);
  checkb "cancelled id is stale" false (Eq.cancel q id2);
  let id3 = Eq.add q ~time:(Time.of_int_ns 30) (fun () -> incr fired) in
  checkb "a one-shot in the same slot" true (Eq.pool_size q = 1);
  checkb "both old ids stay inert" false (Eq.cancel q id1 || Eq.cancel q id2);
  checkb "the one-shot still fires" true (Eq.pop q);
  (Eq.popped_action q) ();
  checkb "and its id goes stale too" false (Eq.cancel q id3);
  checki "two firings" 2 !fired

let test_event_class_table () =
  let module C = Engine.Event_class in
  checki "count matches all" C.count (Array.length C.all);
  Array.iter
    (fun c ->
      checkb
        ("all.(index c) roundtrip: " ^ C.name c)
        true
        (C.all.(C.index c) = c))
    C.all;
  checki "Other is the default slot" 0 (C.index C.Other)

let test_sim_profiler_hooks () =
  let sim = Sim.create () in
  let seen_before = ref [] and seen_after = ref [] in
  Sim.set_profiler sim
    ~before:(fun c -> seen_before := c :: !seen_before)
    ~after:(fun c -> seen_after := c :: !seen_after);
  ignore (Sim.schedule_at_cls sim (Time.of_int_ns 1) ~cls:2 (fun () -> ()));
  ignore (Sim.schedule_after_cls sim (Time.span_of_int_ns 2) ~cls:4 (fun () -> ()));
  ignore (Sim.schedule_at sim (Time.of_int_ns 3) (fun () -> ()));
  Sim.run sim;
  Alcotest.(check (list int)) "before saw each class in order" [ 2; 4; 0 ]
    (List.rev !seen_before);
  Alcotest.(check (list int)) "after mirrors before" [ 2; 4; 0 ]
    (List.rev !seen_after);
  Sim.clear_profiler sim;
  ignore (Sim.schedule_at sim (Time.of_int_ns 10) (fun () -> ()));
  Sim.run sim;
  checki "cleared hooks are silent" 3 (List.length !seen_before)

(* With no profiler attached the dispatch loop's extra cost is one
   predicted-false branch: after a set/clear cycle the same churn must
   stay within the pooled queue's budget (0.25 words/event; it reads
   0.0 in the default build and under --profile dev). *)
let test_profiler_disabled_alloc () =
  let sim = Sim.create () in
  Sim.set_profiler sim ~before:(fun _ -> ()) ~after:(fun _ -> ());
  Sim.clear_profiler sim;
  let left = ref 0 in
  let rec act () =
    decr left;
    if !left > 0 then ignore (Sim.schedule_after sim (Time.span_of_us 1.) act)
  in
  let churn n =
    left := n;
    ignore (Sim.schedule_after sim (Time.span_of_us 1.) act);
    Sim.run sim
  in
  churn 1_000;
  let before = Gc.minor_words () in
  let n = 20_000 in
  churn n;
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  checkb
    (Printf.sprintf "%.2f words/event with profiler cleared" per_event)
    true
    (per_event <= 0.25)

let test_heap_drain_releases_elements () =
  (* After growth and a full drain the heap must not pin the popped
     elements: ~2 MB of strings passed through, so a reachable size in
     the hundreds of words proves every slot was cleared. *)
  let h = Heap.create ~capacity:4 ~cmp:String.compare () in
  for i = 0 to 511 do
    Heap.push h (String.make 4096 (Char.chr (i land 0xff)))
  done;
  while Heap.pop h <> None do
    ()
  done;
  let words = Obj.reachable_words (Obj.repr h) in
  checkb
    (Printf.sprintf "drained heap retains %d words" words)
    true (words < 4_096)

(* --- Ring --- *)

module Ring = Engine.Int_ring

let pop_opt r = if Ring.is_empty r then None else Some (Ring.pop r)

let drain r =
  let out = ref [] in
  while not (Ring.is_empty r) do
    out := Ring.pop r :: !out
  done;
  List.rev !out

let test_ring_fifo_basics () =
  let r = Ring.create ~capacity:2 () in
  checkb "fresh ring empty" true (Ring.is_empty r);
  for i = 1 to 5 do
    Ring.push r i
  done;
  checki "pop front" 1 (Ring.pop r);
  checki "then next" 2 (Ring.pop r);
  Alcotest.(check (list int)) "rest in order" [ 3; 4; 5 ] (drain r)

let test_ring_pop_empty_raises () =
  let r = Ring.create () in
  Alcotest.check_raises "pop on empty" Not_found (fun () ->
      ignore (Ring.pop r))

let test_ring_wraparound_growth () =
  (* Pop a few from the front, refill past the old back: the write
     index wraps before the buffer grows, so growth must linearise the
     wrapped contents. *)
  let r = Ring.create ~capacity:4 () in
  for i = 0 to 3 do
    Ring.push r i
  done;
  checki "pop 0" 0 (Ring.pop r);
  checki "pop 1" 1 (Ring.pop r);
  for i = 4 to 9 do
    Ring.push r i
  done;
  Alcotest.(check (list int))
    "drain order across the wrap" [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (drain r)

let prop_ring_matches_queue =
  QCheck.Test.make ~count:300 ~name:"Ring behaves like Stdlib.Queue"
    QCheck.(
      list_of_size Gen.(int_range 0 200) (pair bool (int_bound 1_000)))
    (fun ops ->
      let r = Ring.create ~capacity:1 () in
      let q = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Ring.push r v;
            Queue.add v q;
            true
          end
          else
            match (pop_opt r, Queue.take_opt q) with
            | None, None -> true
            | Some a, Some b -> a = b
            | _ -> false)
        ops
      && drain r = List.of_seq (Queue.to_seq q))

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "engine.time",
      [
        Alcotest.test_case "conversions" `Quick test_time_conversions;
        Alcotest.test_case "rounding" `Quick test_time_rounding;
        Alcotest.test_case "ordering" `Quick test_time_ordering;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "arithmetic allocates nothing" `Quick
          test_time_arith_zero_alloc;
        Alcotest.test_case "invalid inputs" `Quick test_time_invalid;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "engine.heap",
      [
        Alcotest.test_case "push/pop basics" `Quick test_heap_basic;
        Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
        Alcotest.test_case "sorted drain" `Quick test_heap_sorted_drain;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        Alcotest.test_case "iter_unordered" `Quick test_heap_iter;
        qtest prop_heap_sorts;
        qtest prop_heap_interleaved;
      ] );
    ( "engine.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "jitter bounds" `Quick test_rng_jitter_bounds;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "time order" `Quick test_sim_runs_in_order;
        Alcotest.test_case "FIFO at same instant" `Quick test_sim_fifo_same_instant;
        Alcotest.test_case "clock advances" `Quick test_sim_clock_advances;
        Alcotest.test_case "schedule_after" `Quick test_sim_schedule_after;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "cancel reclaims at once" `Quick
          test_sim_cancel_reclaims;
        Alcotest.test_case "high water pinned on a no-cancel run" `Quick
          test_sim_hwm_no_cancel_regression;
        Alcotest.test_case "high water counts live only" `Quick
          test_sim_hwm_counts_live_only;
        Alcotest.test_case "schedule between a bounded run and a pending event"
          `Quick test_sim_schedule_after_bounded_run;
        Alcotest.test_case "scheduling in the past" `Quick test_sim_past_raises;
        Alcotest.test_case "run until" `Quick test_sim_run_until;
        Alcotest.test_case "until inclusive" `Quick test_sim_until_inclusive;
        Alcotest.test_case "until advances idle clock" `Quick
          test_sim_until_advances_clock_when_idle;
        Alcotest.test_case "until does not overshoot past a dead root" `Quick
          test_sim_run_until_no_overshoot;
        Alcotest.test_case "step" `Quick test_sim_step;
        Alcotest.test_case "events processed" `Quick test_sim_events_processed;
        Alcotest.test_case "profiler hooks" `Quick test_sim_profiler_hooks;
        Alcotest.test_case "profiler disabled allocation" `Quick
          test_profiler_disabled_alloc;
        qtest prop_sim_fires_in_time_order;
        qtest prop_sim_sliced_run_matches_unsliced;
      ] );
    ( "engine.event_queue",
      [
        Alcotest.test_case "cancel-heavy reclaim" `Quick
          test_event_queue_compaction_sweep;
        Alcotest.test_case "stale cancel rejected" `Quick
          test_event_queue_stale_cancel;
        Alcotest.test_case "wheel cancel reclaims slots" `Quick
          test_event_queue_wheel_cancel_reclaims;
        Alcotest.test_case "far-bucket cancel, order" `Quick
          test_event_queue_far_bucket;
        Alcotest.test_case "add before pos raises" `Quick
          test_event_queue_add_before_position;
        Alcotest.test_case "cascade boundaries" `Quick
          test_event_queue_cascade_boundaries;
        Alcotest.test_case "pop_until keeps an overflow block past stop"
          `Quick test_event_queue_pop_until_keeps_overflow;
        Alcotest.test_case "zero-alloc fast path" `Quick
          test_event_queue_zero_alloc_fast_path;
        Alcotest.test_case "allocation regression" `Quick
          test_event_queue_alloc_regression;
        Alcotest.test_case "event class tags" `Quick test_event_queue_cls;
        Alcotest.test_case "registered actions" `Quick test_event_queue_actions;
        Alcotest.test_case "action re-arm allocates nothing" `Quick
          test_event_queue_action_rearm_allocates_nothing;
        Alcotest.test_case "one-shot reclaim on fire and cancel" `Quick
          test_event_queue_oneshot_reclaim;
        Alcotest.test_case "stale generations after reuse" `Quick
          test_event_queue_stale_generation;
        Alcotest.test_case "event class table" `Quick test_event_class_table;
        Alcotest.test_case "heap drain releases elements" `Quick
          test_heap_drain_releases_elements;
        qtest prop_event_queue_matches_model;
        qtest prop_event_queue_large_keys;
        qtest prop_event_queue_matches_heap;
        qtest prop_event_queue_pop_until_matches_heap;
        qtest prop_event_queue_bitmap_edges;
        qtest prop_event_queue_cancel_heavy;
      ] );
    ( "engine.ring",
      [
        Alcotest.test_case "FIFO basics" `Quick test_ring_fifo_basics;
        Alcotest.test_case "pop on empty" `Quick test_ring_pop_empty_raises;
        Alcotest.test_case "wraparound and growth" `Quick
          test_ring_wraparound_growth;
        qtest prop_ring_matches_queue;
      ] );
    ( "engine.timer",
      [
        Alcotest.test_case "fires at deadline" `Quick test_timer_fires;
        Alcotest.test_case "re-arm replaces" `Quick test_timer_rearm_replaces;
        Alcotest.test_case "cancel" `Quick test_timer_cancel;
        Alcotest.test_case "deadline introspection" `Quick test_timer_deadline;
        Alcotest.test_case "periodic reuse" `Quick test_timer_periodic_reuse;
      ] );
  ]
