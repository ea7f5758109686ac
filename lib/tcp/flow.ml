module Sim = Engine.Sim
module Time = Engine.Time

type t = {
  sim : Sim.t;
  sender : Sender.t;
  receiver : Receiver.t;
}

let create sim ~src ~dst ~flow ~cc ?tracer ?(config = Sender.default_config)
    ?echo ?limit_segments ?on_complete () =
  let receiver =
    Receiver.create sim ~host:dst ~flow ~peer:(Net.Host.id src) ?echo
      ~sack:config.Sender.sack ~ack_bytes:config.Sender.ack_bytes ()
  in
  let rec t =
    lazy
      (let on_complete () =
         match on_complete with
         | Some f -> f (Lazy.force t)
         | None -> ()
       in
       let sender =
         Sender.create sim ~host:src ~peer:(Net.Host.id dst) ~flow ~cc
           ?tracer ~config ?limit_segments ~on_complete ()
       in
       { sim; sender; receiver })
  in
  Lazy.force t

let start t = Sender.start t.sender

let cls_protocol = Engine.Event_class.(index Protocol)

let start_at t at =
  ignore
    (Sim.schedule_at_cls t.sim at ~cls:cls_protocol (fun () ->
         Sender.start t.sender))

let sender t = t.sender
let alpha t = Sender.alpha t.sender
let completed t = Sender.completed t.sender
let completion_time t = Sender.completion_time t.sender
let segments_delivered t = Receiver.segments_delivered t.receiver

let close t =
  Sender.close t.sender;
  Receiver.close t.receiver
