(* A timer is a rearm-heavy client of the event queue (RTO timers rearm
   on nearly every ACK), so [set]/[cancel] must not allocate: the firing
   closure is built once in [create], and the pending state lives in
   mutable immediate fields instead of an option of a tuple. *)

type t = {
  sim : Sim.t;
  action : unit -> unit;
  mutable ev : Sim.event_id;
  mutable armed : bool;
  mutable at : Time.t;
  mutable fire : unit -> unit;
}

let create sim ~action =
  let t =
    {
      sim;
      action;
      ev = Sim.no_event;
      armed = false;
      at = Time.zero;
      fire = action;
    }
  in
  t.fire <-
    (fun () ->
      t.armed <- false;
      t.action ());
  t

let cancel t =
  if t.armed then begin
    Sim.cancel t.sim t.ev;
    t.armed <- false
  end

let cls_timer = Event_class.index Event_class.Timer

let set t ~after =
  let at = Time.add (Sim.now t.sim) after in
  cancel t;
  t.ev <- Sim.schedule_at_cls t.sim at ~cls:cls_timer t.fire;
  t.armed <- true;
  t.at <- at
let is_pending t = t.armed
let deadline t = if t.armed then Some t.at else None
