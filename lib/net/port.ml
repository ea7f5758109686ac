module Sim = Engine.Sim
module Time = Engine.Time

(* The transmit loop is allocation-conscious: the two per-packet closures
   the obvious implementation would build (tx-complete, delivery) are
   replaced by two simulation actions registered once per port, so each
   packet schedules two action indices and stores no pointer in the event
   queue. The packet being serialized sits in [tx_pkt]; packets in flight
   on the propagation-delay link sit in a ring. Both hand-offs are safe
   because each is FIFO: a port serializes one packet at a time, and with
   a constant link delay deliveries complete in transmit order. *)
type disposition = Deliver | Lose | Delay of Time.span

(* Profiler class tags: serialization completions vs propagation-delay
   deliveries. Immediate ints bound once at module init. *)
let cls_link_tx = Engine.Event_class.(index Link_tx)
let cls_link_rx = Engine.Event_class.(index Link_rx)

type t = {
  sim : Sim.t;
  st : Packet.store;
  mutable rate_bps : float;
  delay : Time.span;
  queue : Queue_disc.t;
  deliver : Packet.t -> unit;
  mutable busy : bool;
  mutable up : bool;
  (* Fault-injection hook consulted once per delivery; [None] (the
     default) keeps the pre-fault fast path: a single immediate-value
     branch. *)
  mutable fault_hook : (Packet.t -> disposition) option;
  mutable bytes_sent : int;
  mutable packets_sent : int;
  in_flight : Engine.Int_ring.t;
  mutable tx_pkt : Packet.t;  (* currently serializing; [Packet.none] if idle *)
  mutable tx_action : Sim.action;  (* runs [finish_tx]: [tx_pkt] is sent *)
  mutable rx_action : Sim.action;  (* runs [deliver_head] *)
  (* Memo of the last serialization time by packet size: traffic on a port
     is dominated by one or two packet sizes, so this skips the float
     division and rounding almost every time. *)
  mutable memo_size : int;
  mutable memo_tx : Time.span;
}

let tx_time t ~bytes =
  Time.span_of_sec (float_of_int (bytes * 8) /. t.rate_bps)

let tx_span t ~bytes =
  if bytes = t.memo_size then t.memo_tx
  else begin
    let span = tx_time t ~bytes in
    t.memo_size <- bytes;
    t.memo_tx <- span;
    span
  end

let start_tx t =
  if Queue_disc.is_empty t.queue then t.busy <- false
  else begin
    let pkt = Queue_disc.dequeue_exn t.queue in
    t.busy <- true;
    t.tx_pkt <- pkt;
    ignore
      (Sim.schedule_action_after t.sim
         (tx_span t ~bytes:(Packet.size t.st pkt))
         t.tx_action)
  end

let deliver_head t =
  let pkt = Engine.Int_ring.pop t.in_flight in
  match t.fault_hook with
  | None -> t.deliver pkt
  | Some hook -> (
      match hook pkt with
      | Deliver -> t.deliver pkt
      | Lose ->
          (* The wire consumed the packet: recycle its handle. *)
          Packet.free t.st pkt
      | Delay span ->
          (* Jittered deliveries leave the FIFO ring discipline: the
             packet is already popped, and reordering past later packets
             is the point, so each one needs its own event. The one-shot
             closure (fault mode only) is the whole cost; the fault-free
             path never reaches this arm. *)
          let late () = t.deliver pkt in
          ignore (Sim.schedule_after_cls t.sim span ~cls:cls_link_rx late)) (* dtlint: allow R14 *)

let finish_tx t =
  let pkt = t.tx_pkt in
  t.tx_pkt <- Packet.none;
  t.bytes_sent <- t.bytes_sent + Packet.size t.st pkt;
  t.packets_sent <- t.packets_sent + 1;
  Engine.Int_ring.push t.in_flight pkt;
  ignore (Sim.schedule_action_after t.sim t.delay t.rx_action);
  if t.up then start_tx t else t.busy <- false

let create sim ~rate_bps ~delay ~queue ~deliver =
  if rate_bps <= 0. then invalid_arg "Port.create: rate must be positive";
  if Time.span_to_int_ns delay < 0 then
    invalid_arg "Port.create: negative delay";
  let t =
    {
      sim;
      st = Packet.store_of sim;
      rate_bps;
      delay;
      queue;
      deliver;
      busy = false;
      up = true;
      fault_hook = None;
      bytes_sent = 0;
      packets_sent = 0;
      in_flight = Engine.Int_ring.create ~capacity:16 ();
      tx_pkt = Packet.none;
      tx_action = Sim.no_action;
      rx_action = Sim.no_action;
      memo_size = -1;
      memo_tx = Time.span_of_int_ns 0;
    }
  in
  t.rx_action <- Sim.action sim ~cls:cls_link_rx (fun () -> deliver_head t);
  t.tx_action <- Sim.action sim ~cls:cls_link_tx (fun () -> finish_tx t);
  t

let send t pkt =
  match Queue_disc.enqueue t.queue pkt with
  | `Dropped -> ()
  | `Enqueued -> if not t.busy && t.up then start_tx t

let set_up t up =
  if up && not t.up then begin
    t.up <- true;
    if not t.busy then start_tx t
  end
  else if not up then t.up <- false

let is_up t = t.up

let set_rate t rate_bps =
  if rate_bps <= 0. then invalid_arg "Port.set_rate: rate must be positive";
  t.rate_bps <- rate_bps;
  t.memo_size <- -1

let set_fault_hook t hook = t.fault_hook <- Some hook

let queue t = t.queue
let rate_bps t = t.rate_bps
let bytes_sent t = t.bytes_sent
let packets_sent t = t.packets_sent

let reset_counters t =
  t.bytes_sent <- 0;
  t.packets_sent <- 0

