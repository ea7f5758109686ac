module Sim = Engine.Sim
module Time = Engine.Time
module Trace_ev = Obs.Trace

(* Slots of the time-weighted occupancy-integral accumulator. A flat
   float array keeps the sums unboxed: mutable float fields in this
   (mixed) record would allocate a box on every enqueue/dequeue. *)
let int_bytes = 0 (* integral of occ_bytes dt (seconds) *)

let int_bytes2 = 1 (* integral of occ_bytes^2 dt *)

let int_pkts = 2
let int_pkts2 = 3

type t = {
  sim : Sim.t;
  name : string;
  buffer : Buffer_mgr.port;
  marking : Marking.t;
  tracer : Trace_ev.t;
  st : Packet.store;
  fifo : Engine.Int_ring.t;
  mutable occ_bytes : int;
  mutable occ_pkts : int;
  mutable drops : int;
  mutable enqueued : int;
  mutable marked : int;
  (* time-weighted occupancy integrals *)
  mutable stats_start : Time.t;
  mutable last_change : Time.t;
  acc : float array;
  mutable max_bytes : int;
}

let create sim ~buffer ?(marking = Marking.none ())
    ?(tracer = Trace_ev.null) ?metrics ?(name = "queue") () =
  let now = Sim.now sim in
  let t =
    {
      sim;
      name;
      buffer;
      marking;
      tracer;
      st = Packet.store_of sim;
      (* Starts small and doubles as the queue deepens: most of a
         fabric's queues never hold more than a few packets. *)
      fifo = Engine.Int_ring.create ~capacity:8 ();
      occ_bytes = 0;
      occ_pkts = 0;
      drops = 0;
      enqueued = 0;
      marked = 0;
      stats_start = now;
      last_change = now;
      acc = Array.make 4 0.;
      max_bytes = 0;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let pre = "queue." ^ name ^ "." in
      Obs.Metrics.probe m (pre ^ "drops") (fun () -> float_of_int t.drops);
      Obs.Metrics.probe m (pre ^ "marks") (fun () -> float_of_int t.marked);
      Obs.Metrics.probe m (pre ^ "enqueues") (fun () ->
          float_of_int t.enqueued);
      Buffer_mgr.register_metrics buffer m);
  (* Announce the capacity behind the marking policy once at creation;
     limit-relative policies derive their initial thresholds from it. A
     Static buffer's limit never moves again, so this is the only call
     those queues ever make. *)
  marking.Marking.on_limit ~limit_bytes:(Buffer_mgr.effective_limit buffer);
  t


let emit t event =
  Trace_ev.emit t.tracer
    { Trace_ev.time = Sim.now t.sim; component = t.name; event }

(* Occupancy events take the unboxed entry point. Call sites keep the
   [enabled] guard so an untraced run evaluates none of the arguments. *)
let emit_occ t cls pkt =
  Trace_ev.emit_occ t.tracer cls ~time:(Sim.now t.sim) ~component:t.name
    ~flow:(Packet.flow t.st pkt) ~occ_bytes:t.occ_bytes ~occ_pkts:t.occ_pkts

let[@inline] accumulate t =
  let now = Sim.now t.sim in
  (* Instants are immediate ints: subtracting them directly skips the
     boxed span [Time.diff] would build, and the int -> float conversion
     rounds identically to the int64 one (both are exact below 2^53). *)
  let dt =
    float_of_int (Time.to_int_ns now - Time.to_int_ns t.last_change) /. 1e9
  in
  if dt > 0. then begin
    let b = float_of_int t.occ_bytes and p = float_of_int t.occ_pkts in
    let acc = t.acc in
    acc.(int_bytes) <- acc.(int_bytes) +. (b *. dt);
    acc.(int_bytes2) <- acc.(int_bytes2) +. (b *. b *. dt);
    acc.(int_pkts) <- acc.(int_pkts) +. (p *. dt);
    acc.(int_pkts2) <- acc.(int_pkts2) +. (p *. p *. dt)
  end;
  t.last_change <- now

(* A rejected admission: out of line, so the inlined [enqueue] keeps
   only its admitted path. *)
let[@inline never] drop t pkt =
  t.drops <- t.drops + 1;
  if
    Buffer_mgr.shared t.buffer
    && Trace_ev.enabled t.tracer Trace_ev.C_pool_reject
  then
    emit t
      (Trace_ev.Pool_reject
         {
           flow = Packet.flow t.st pkt;
           occ_bytes = t.occ_bytes;
           pool_used = Buffer_mgr.pool_used t.buffer;
           limit_bytes = Buffer_mgr.effective_limit t.buffer;
         });
  if Trace_ev.enabled t.tracer Trace_ev.C_drop then
    emit_occ t Trace_ev.C_drop pkt;
  (* The queue consumed the packet by dropping it: its handle is
     recycled here, after the traces above read their fields. *)
  Packet.free t.st pkt

let[@inline] enqueue t pkt =
  let size = Packet.size t.st pkt in
  if not ((Buffer_mgr.admit [@inlined]) t.buffer size) then begin
    drop t pkt;
    `Dropped
  end
  else begin
    (accumulate [@inlined]) t;
    Packet.set_enq_ns t.st pkt (Time.to_int_ns (Sim.now t.sim));
    (Engine.Int_ring.push [@inlined]) t.fifo pkt;
    t.occ_bytes <- t.occ_bytes + size;
    t.occ_pkts <- t.occ_pkts + 1;
    t.enqueued <- t.enqueued + 1;
    if t.occ_bytes > t.max_bytes then t.max_bytes <- t.occ_bytes;
    (* On a shared pool the capacity behind the policy moved with this
       admission (and with every other port's); refresh before the
       policy is consulted so hysteresis sees the K its zone machine
       should be judged against. Static buffers skip this: their limit
       was announced once at creation. *)
    if (Buffer_mgr.shared [@inlined]) t.buffer then begin
      t.marking.Marking.on_limit
        ~limit_bytes:((Buffer_mgr.effective_limit [@inlined]) t.buffer);
      if (Trace_ev.enabled [@inlined]) t.tracer Trace_ev.C_pool_high_water
      then begin
        let hw = Buffer_mgr.poll_high_water t.buffer in
        if hw >= 0 then emit t (Trace_ev.Pool_high_water { pool_used = hw })
      end
    end;
    if t.marking.Marking.on_enqueue ~bytes:t.occ_bytes ~packets:t.occ_pkts
    then begin
      if Packet.is_ect t.st pkt then begin
        Packet.mark_ce t.st pkt;
        t.marked <- t.marked + 1;
        if (Trace_ev.enabled [@inlined]) t.tracer Trace_ev.C_mark then
          emit_occ t Trace_ev.C_mark pkt
      end
    end;
    if (Trace_ev.enabled [@inlined]) t.tracer Trace_ev.C_enqueue then
      emit_occ t Trace_ev.C_enqueue pkt;
    `Enqueued
  end

let[@inline] dequeue_exn t =
  let pkt = (Engine.Int_ring.pop [@inlined]) t.fifo in
  let size = Packet.size t.st pkt in
  (accumulate [@inlined]) t;
  t.occ_bytes <- t.occ_bytes - size;
  t.occ_pkts <- t.occ_pkts - 1;
  (Buffer_mgr.release [@inlined]) t.buffer size;
  if (Buffer_mgr.shared [@inlined]) t.buffer then
    t.marking.Marking.on_limit
      ~limit_bytes:((Buffer_mgr.effective_limit [@inlined]) t.buffer);
  t.marking.Marking.on_dequeue ~bytes:t.occ_bytes ~packets:t.occ_pkts;
  if (Trace_ev.enabled [@inlined]) t.tracer Trace_ev.C_dequeue then
    emit_occ t Trace_ev.C_dequeue pkt;
  pkt

let[@inline] is_empty t = Engine.Int_ring.is_empty t.fifo

let occupancy_bytes t = t.occ_bytes
let occupancy_packets t = t.occ_pkts
let drops t = t.drops
let enqueued t = t.enqueued
let marked t = t.marked

let reset_stats t =
  let now = Sim.now t.sim in
  t.stats_start <- now;
  t.last_change <- now;
  Array.fill t.acc 0 4 0.;
  t.max_bytes <- t.occ_bytes;
  t.drops <- 0;
  t.enqueued <- 0;
  t.marked <- 0

let elapsed t =
  accumulate t;
  Time.span_to_sec (Time.diff (Sim.now t.sim) t.stats_start)

let mean_occupancy_bytes t =
  let dt = elapsed t in
  if dt <= 0. then float_of_int t.occ_bytes else t.acc.(int_bytes) /. dt

let stddev_occupancy_bytes t =
  let dt = elapsed t in
  if dt <= 0. then 0.
  else begin
    let mean = t.acc.(int_bytes) /. dt in
    let var = (t.acc.(int_bytes2) /. dt) -. (mean *. mean) in
    sqrt (if var >= 0. then var else 0.)
  end

let mean_occupancy_packets t =
  let dt = elapsed t in
  if dt <= 0. then float_of_int t.occ_pkts else t.acc.(int_pkts) /. dt

let stddev_occupancy_packets t =
  let dt = elapsed t in
  if dt <= 0. then 0.
  else begin
    let mean = t.acc.(int_pkts) /. dt in
    let var = (t.acc.(int_pkts2) /. dt) -. (mean *. mean) in
    sqrt (if var >= 0. then var else 0.)
  end

let max_occupancy_bytes t = t.max_bytes
