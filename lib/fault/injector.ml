module Sim = Engine.Sim
module Time = Engine.Time
module Rng = Engine.Rng
module Trace = Obs.Trace

(* 'FAULT' in ASCII. XORed into the spec seed so the injector's stream is
   deterministic yet distinct from the simulation's own stream: faulted
   draws never consume from — or depend on the draw order of — the
   workload's randomness. *)
let seed_salt = 0x4641554C54L

type t = {
  sim : Sim.t;
  plan : Plan.t;
  rng : Rng.t;
  tracer : Trace.t;
  component : string;
  mutable link_downs : int;
  mutable pkts_lost : int;
  mutable pkts_delayed : int;
  mutable marks_suppressed : int;
  mutable rate_changes : int;
}

let create sim ~plan ~seed ?(tracer = Trace.null) ?metrics ~component () =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault.Injector.install: " ^ msg));
  let t =
    {
      sim;
      plan;
      rng = Rng.create ~seed:(Int64.logxor seed seed_salt);
      tracer;
      component;
      link_downs = 0;
      pkts_lost = 0;
      pkts_delayed = 0;
      marks_suppressed = 0;
      rate_changes = 0;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.probe m "fault.link_downs" (fun () ->
          float_of_int t.link_downs);
      Obs.Metrics.probe m "fault.pkts_lost" (fun () ->
          float_of_int t.pkts_lost);
      Obs.Metrics.probe m "fault.pkts_delayed" (fun () ->
          float_of_int t.pkts_delayed);
      Obs.Metrics.probe m "fault.marks_suppressed" (fun () ->
          float_of_int t.marks_suppressed);
      Obs.Metrics.probe m "fault.rate_changes" (fun () ->
          float_of_int t.rate_changes));
  t

let emit t event =
  if Trace.enabled t.tracer (Trace.cls_of_event event) then
    Trace.emit t.tracer
      { time = Sim.now t.sim; component = t.component; event }

let cls_fault = Engine.Event_class.(index Fault)

let attach t ~port =
  let queue = Net.Port.queue port in
  let occ () = Net.Queue_disc.occupancy_bytes queue in
  List.iter
    (fun { Plan.down_at; up_at } ->
      ignore
        (Sim.schedule_after_cls t.sim down_at ~cls:cls_fault (fun () ->
             Net.Port.set_up port false;
             t.link_downs <- t.link_downs + 1;
             emit t (Trace.Link_down { occ_bytes = occ () })));
      ignore
        (Sim.schedule_after_cls t.sim up_at ~cls:cls_fault (fun () ->
             Net.Port.set_up port true;
             emit t (Trace.Link_up { occ_bytes = occ () }))))
    t.plan.Plan.flaps;
  let base_rate = Net.Port.rate_bps port in
  List.iter
    (fun { Plan.at; until; factor } ->
      let set rate () =
        Net.Port.set_rate port rate;
        t.rate_changes <- t.rate_changes + 1;
        emit t (Trace.Rate_changed { rate_bps = rate })
      in
      ignore
        (Sim.schedule_after_cls t.sim at ~cls:cls_fault
           (set (base_rate *. factor)));
      ignore (Sim.schedule_after_cls t.sim until ~cls:cls_fault (set base_rate)))
    t.plan.Plan.rate_changes;
  let loss = t.plan.Plan.loss_rate and jitter = t.plan.Plan.jitter_max in
  (* Resolved once here, not per delivery inside the hook. *)
  let st = Net.Packet.store_of t.sim in
  if loss > 0. || Int64.compare jitter 0L > 0 then
    Net.Port.set_fault_hook port (fun pkt ->
        if loss > 0. && Rng.float t.rng < loss then begin
          t.pkts_lost <- t.pkts_lost + 1;
          emit t
            (Trace.Pkt_lost
               {
                 flow = Net.Packet.flow st pkt;
                 size = Net.Packet.size st pkt;
               });
          Net.Port.Lose
        end
        else if Int64.compare jitter 0L > 0 then begin
          let d = Rng.jitter_span t.rng ~max:jitter in
          if Int64.compare d 0L = 0 then Net.Port.Deliver
          else begin
            t.pkts_delayed <- t.pkts_delayed + 1;
            Net.Port.Delay d
          end
        end
        else Net.Port.Deliver)

let wrap_marking t marking =
  match t.plan.Plan.suppression with
  | Plan.Keep_marks -> marking
  | sup ->
      let attach_time = Sim.now t.sim in
      let active =
        match sup with
        | Plan.Keep_marks -> fun () -> false
        | Plan.Suppress_all -> fun () -> true
        | Plan.Suppress_window { at; until } ->
            let start = Time.add attach_time at in
            let stop = Time.add attach_time until in
            fun () ->
              let now = Sim.now t.sim in
              Time.(start <= now) && Time.(now < stop)
        | Plan.Suppress_prob p -> fun () -> Rng.float t.rng < p
      in
      let on_suppress ~bytes ~packets =
        t.marks_suppressed <- t.marks_suppressed + 1;
        emit t (Trace.Mark_suppressed { occ_bytes = bytes; occ_pkts = packets })
      in
      Net.Marking.suppress ~active ~on_suppress marking

let install sim faults ~seed ?tracer ?metrics ~component marking =
  match faults with
  | None -> (marking, fun _ -> ())
  | Some plan ->
      let t = create sim ~plan ~seed ?tracer ?metrics ~component () in
      (wrap_marking t marking, fun port -> attach t ~port)
