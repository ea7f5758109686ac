module Sim = Engine.Sim
module Time = Engine.Time

(* The transmit loop is allocation-conscious: the two per-packet closures
   the obvious implementation would build (tx-complete, delivery) are
   replaced by two closures allocated once per port. The packet being
   serialized sits in [tx_pkt]; packets in flight on the propagation-delay
   link sit in a ring. Both hand-offs are safe because each is FIFO: a
   port serializes one packet at a time, and with a constant link delay
   deliveries complete in transmit order. *)
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
  mutable tx_done : unit -> unit;  (* fires when [tx_pkt] finishes *)
  mutable deliver_head : unit -> unit;  (* delivers front of [in_flight] *)
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
      (Sim.schedule_after_cls t.sim
         (tx_span t ~bytes:(Packet.size t.st pkt))
         ~cls:cls_link_tx t.tx_done)
  end

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
      tx_done = ignore;
      deliver_head = ignore;
      memo_size = -1;
      memo_tx = Time.span_of_int_ns 0;
    }
  in
  t.deliver_head <-
    (fun () ->
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
                 packet is already popped, so the extra closure (fault
                 mode only) is the whole cost, and reordering past later
                 packets is the point. *)
              ignore
                (Sim.schedule_after_cls t.sim span ~cls:cls_link_rx
                   (fun () -> t.deliver pkt))));
  t.tx_done <-
    (fun () ->
      let pkt = t.tx_pkt in
      t.tx_pkt <- Packet.none;
      t.bytes_sent <- t.bytes_sent + Packet.size t.st pkt;
      t.packets_sent <- t.packets_sent + 1;
      Engine.Int_ring.push t.in_flight pkt;
      ignore (Sim.schedule_after_cls t.sim t.delay ~cls:cls_link_rx t.deliver_head);
      if t.up then start_tx t else t.busy <- false);
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

