(* A timer is a rearm-heavy client of the event queue (RTO timers rearm
   on nearly every ACK), so [set]/[cancel] must not allocate: the firing
   closure is registered once in [create] as a simulation action, and the
   pending state lives in mutable immediate fields instead of an option
   of a tuple. Arming schedules the action's index, so a re-arm stores
   no pointer either. *)

type t = {
  sim : Sim.t;
  action : unit -> unit;
  mutable ev : Sim.event_id;
  mutable armed : bool;
  mutable at : Time.t;
  mutable fire : Sim.action;
}

let cls_timer = Event_class.index Event_class.Timer

let create sim ~action =
  let t =
    {
      sim;
      action;
      ev = Sim.no_event;
      armed = false;
      at = Time.zero;
      fire = Sim.no_action;
    }
  in
  t.fire <-
    Sim.action sim ~cls:cls_timer (fun () ->
        t.armed <- false;
        t.action ());
  t

let cancel t =
  if t.armed then begin
    Sim.cancel t.sim t.ev;
    t.armed <- false
  end

let set t ~after =
  let at = Time.add (Sim.now t.sim) after in
  cancel t;
  t.ev <- Sim.schedule_action_at t.sim at t.fire;
  t.armed <- true;
  t.at <- at

let is_pending t = t.armed
let deadline t = if t.armed then Some t.at else None
