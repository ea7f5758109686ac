type event_id = Event_queue.id

type ext = ..

type t = {
  q : Event_queue.t;
  mutable now : Time.t;
  rng : Rng.t;
  mutable processed : int;
  mutable hwm : int;
  mutable ids : int;
  (* Self-profiler hooks: when [profiling] is false the step loop pays a
     single immediate-bool branch and touches neither closure. *)
  mutable profiling : bool;
  mutable prof_before : int -> unit;
  mutable prof_after : int -> unit;
  (* Per-simulation extension slots: upper layers attach state scoped to
     this simulation (e.g. the packet store) without a module-level
     global (dtlint R12) and without threading new parameters through
     every component constructor. Looked up at component creation, not
     per event, so a list walk is fine. *)
  mutable exts : ext list;
}

let noop_cls (_ : int) = ()
let no_event = Event_queue.none

let create ?(seed = 1L) () =
  {
    q = Event_queue.create ~capacity:1024 ();
    now = Time.zero;
    rng = Rng.create ~seed;
    processed = 0;
    hwm = 0;
    ids = 0;
    profiling = false;
    prof_before = noop_cls;
    prof_after = noop_cls;
    exts = [];
  }

let add_ext t e = t.exts <- e :: t.exts

let rec find_ext_walk f = function
  | [] -> None
  | e :: rest -> (
      match f e with Some _ as r -> r | None -> find_ext_walk f rest)

let find_ext t f = find_ext_walk f t.exts

let now t = t.now
let rng t = t.rng

let fresh_id t =
  t.ids <- t.ids + 1;
  t.ids

type action = Event_queue.action

let no_action = Event_queue.no_action

let action t ~cls f = Event_queue.register t.q ~cls f

let check_at t time =
  if Time.(time < t.now) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: %s is before now (%s)"
         (Time.to_string time) (Time.to_string t.now))

let check_after span =
  if Time.span_to_int_ns span < 0 then
    invalid_arg "Sim.schedule_after: negative delay"

(* High water tracks live events only. Counting unswept cancelled
   entries (as before PR 9) made the manifest metric depend on the
   queue's internal sweep schedule rather than on scheduling load; with
   the wheel's immediate-reclaim cancel the two coincide anyway on every
   run the engine can produce. *)
let note_live t =
  let occ = Event_queue.live t.q in
  if occ > t.hwm then t.hwm <- occ

let schedule_action_at t time a =
  check_at t time;
  let id = Event_queue.add_action t.q ~time a in
  note_live t;
  id

let schedule_action_after t span a =
  check_after span;
  schedule_action_at t (Time.add t.now span) a

let schedule_at_cls t time ~cls f =
  check_at t time;
  let id = Event_queue.add_cls t.q ~time ~cls f in
  note_live t;
  id

let schedule_at t time f = schedule_at_cls t time ~cls:0 f

let schedule_after_cls t span ~cls f =
  check_after span;
  schedule_at_cls t (Time.add t.now span) ~cls f

let schedule_after t span f = schedule_after_cls t span ~cls:0 f

let cancel t id = ignore (Event_queue.cancel t.q id)

(* Fire the minimum live event if it is due by [stop_ns]. *)
let step_until t stop_ns =
  if Event_queue.pop_until t.q stop_ns then begin
    t.now <- Event_queue.popped_time t.q;
    t.processed <- t.processed + 1;
    let action = Event_queue.popped_action t.q in
    if t.profiling then begin
      (* Read the class before running the action: the action may pop
         nothing itself, but keeping the read first costs nothing and
         makes the pairing obviously correct. *)
      let cls = Event_queue.popped_cls t.q in
      t.prof_before cls;
      action ();
      t.prof_after cls
    end
    else action ();
    true
  end
  else false

let step t = step_until t max_int

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
      (* Keys are int nanoseconds, so the deadline test inside
         [pop_until] is a single unboxed compare on the live minimum —
         found after cancelled roots are recycled, so a live event past
         the deadline never fires just because a dead root sat in front
         of it. *)
      let stop_ns = Time.to_int_ns stop in
      while step_until t stop_ns do () done;
      if Time.(t.now < stop) then t.now <- stop

let events_processed t = t.processed
let pending t = Event_queue.live t.q
let heap_size t = Event_queue.length t.q
let heap_high_water t = t.hwm
let event_pool_size t = Event_queue.pool_size t.q

let set_profiler t ~before ~after =
  t.prof_before <- before;
  t.prof_after <- after;
  t.profiling <- true

let clear_profiler t =
  t.profiling <- false;
  t.prof_before <- noop_cls;
  t.prof_after <- noop_cls
