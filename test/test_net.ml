(* Tests for packets, marking policy plumbing, queues, ports, hosts,
   switches, topologies, and traces. *)

module Sim = Engine.Sim
module Time = Engine.Time
module Packet = Net.Packet
module Marking = Net.Marking
module Q = Net.Queue_disc

let dequeue q = if Q.is_empty q then None else Some (Q.dequeue_exn q)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-9) msg = Alcotest.check (Alcotest.float eps) msg

(* A dedicated sim (and its packet store) for tests that do not
   otherwise need one. *)
let pkt_sim = Sim.create ()
let pkt_st = Packet.store_of pkt_sim

let mk_pkt ?(sim = pkt_sim) ?(src = 0) ?(dst = 1) ?(flow = 0) ?(size = 1500)
    ?(ecn = Packet.Ect) () =
  Packet.make (Packet.store_of sim) ~src ~dst ~flow ~size ~ecn
    Packet.No_payload

(* --- Packet --- *)

let test_packet_fields () =
  let p = mk_pkt ~src:3 ~dst:9 ~flow:7 ~size:100 () in
  checki "src" 3 (Packet.src pkt_st p);
  checki "dst" 9 (Packet.dst pkt_st p);
  checki "flow" 7 (Packet.flow pkt_st p);
  checki "size" 100 (Packet.size pkt_st p)

let test_packet_ids_unique () =
  let a = mk_pkt () and b = mk_pkt () in
  checkb "distinct ids" true (Packet.id pkt_st a <> Packet.id pkt_st b)

let test_packet_ids_per_sim () =
  (* Packet ids come from the owning sim's counter, not process-global
     state, so two runs hand out the same sequence however many other
     sims are interleaved with them. *)
  let ids_of sim others =
    List.init 8 (fun i ->
        List.iter (fun o -> if i mod 2 = 0 then ignore (mk_pkt ~sim:o ())) others;
        Packet.id (Packet.store_of sim) (mk_pkt ~sim ()))
  in
  let a = Sim.create ~seed:9L () and b = Sim.create ~seed:9L () in
  let noise = Sim.create () in
  let ids_a = ids_of a [ noise ] in
  let ids_b = ids_of b [] in
  Alcotest.(check (list int)) "identical id sequences" ids_a ids_b;
  Alcotest.(check (list int))
    "dense from 1" [ 1; 2; 3; 4; 5; 6; 7; 8 ] ids_b

let test_packet_mark () =
  let p = mk_pkt ~ecn:Packet.Ect () in
  checkb "not ce" false (Packet.is_ce pkt_st p);
  checkb "ect" true (Packet.is_ect pkt_st p);
  Packet.mark_ce pkt_st p;
  checkb "ce" true (Packet.is_ce pkt_st p);
  checkb "ce is ect" true (Packet.is_ect pkt_st p)

let test_packet_mark_not_ect () =
  let p = mk_pkt ~ecn:Packet.Not_ect () in
  Packet.mark_ce pkt_st p;
  checkb "not-ect cannot be marked" false (Packet.is_ce pkt_st p);
  checkb "not ect" false (Packet.is_ect pkt_st p)

let test_packet_bad_size () =
  checkb "zero size raises" true
    (match mk_pkt ~size:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_packet_double_free () =
  let sim = Sim.create () in
  let st = Packet.store_of sim in
  let p = mk_pkt ~sim () in
  Packet.free st p;
  checkb "second free raises" true
    (match Packet.free st p with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_packet_pool_steady () =
  (* The store recycles handles: with at most [k] packets live at once,
     the backing arrays stop growing after the first cycle, however many
     packets pass through afterwards. *)
  let sim = Sim.create () in
  let st = Packet.store_of sim in
  let live0 = Packet.live_count st in
  let k = 8 in
  let cycle () =
    let ps =
      List.init k (fun i -> mk_pkt ~sim ~flow:i ())
    in
    List.iter (fun p -> Packet.free st p) ps
  in
  cycle ();
  let pool = Packet.pool_size st in
  for _ = 1 to 100 do
    cycle ()
  done;
  checki "pool stopped growing" pool (Packet.pool_size st);
  checki "all handles returned" live0 (Packet.live_count st)

let test_packet_enq_ns_stamp () =
  (* Queue_disc.enqueue stamps the admission instant; a fresh packet
     reads back 0 until it is admitted somewhere. *)
  let sim = Sim.create () in
  let st = Packet.store_of sim in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:10_000) () in
  let p = mk_pkt ~sim () in
  checki "fresh packet unstamped" 0 (Packet.enq_ns st p);
  ignore
    (Sim.schedule_at sim (Time.of_int_ns 5_000) (fun () ->
         checkb "admitted" true (Q.enqueue q p = `Enqueued)));
  Sim.run sim;
  checki "stamped with admission time" 5_000 (Packet.enq_ns st p)

(* --- Marking: none --- *)

let test_marking_none () =
  let m = Marking.none () in
  checkb "never marks" false
    (m.Marking.on_enqueue ~bytes:1_000_000 ~packets:1000)

(* --- Queue_disc --- *)

let test_queue_fifo_order () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:10_000) () in
  let a = mk_pkt ~sim ~size:100 () and b = mk_pkt ~sim ~size:100 () in
  checkb "enq a" true (Q.enqueue q a = `Enqueued);
  checkb "enq b" true (Q.enqueue q b = `Enqueued);
  checkb "fifo" true (dequeue q = Some a);
  checkb "fifo2" true (dequeue q = Some b);
  checkb "empty" true (dequeue q = None)

let test_queue_occupancy () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:10_000) () in
  ignore (Q.enqueue q (mk_pkt ~sim ~size:600 ()));
  ignore (Q.enqueue q (mk_pkt ~sim ~size:400 ()));
  checki "bytes" 1000 (Q.occupancy_bytes q);
  checki "pkts" 2 (Q.occupancy_packets q);
  ignore (dequeue q);
  checki "bytes after deq" 400 (Q.occupancy_bytes q);
  checki "pkts after deq" 1 (Q.occupancy_packets q)

let test_queue_tail_drop () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1000) () in
  checkb "fits" true (Q.enqueue q (mk_pkt ~sim ~size:600 ()) = `Enqueued);
  checkb "drops" true (Q.enqueue q (mk_pkt ~sim ~size:600 ()) = `Dropped);
  checki "drop count" 1 (Q.drops q);
  checki "enqueued count" 1 (Q.enqueued q);
  checkb "small still fits" true (Q.enqueue q (mk_pkt ~sim ~size:400 ()) = `Enqueued)

let test_queue_marks_via_policy () =
  let sim = Sim.create () in
  let policy =
    Marking.make ~name:"always"
      ~on_enqueue:(fun ~bytes:_ ~packets:_ -> true)
      ~on_dequeue:(fun ~bytes:_ ~packets:_ -> ())
      ()
  in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:10_000) ~marking:policy () in
  let ect = mk_pkt ~sim ~ecn:Packet.Ect () in
  let nect = mk_pkt ~sim ~ecn:Packet.Not_ect () in
  let st = Packet.store_of sim in
  ignore (Q.enqueue q ect);
  ignore (Q.enqueue q nect);
  checkb "ect marked" true (Packet.is_ce st ect);
  checkb "not-ect unmarked" false (Packet.is_ce st nect);
  checki "marked counts only ect" 1 (Q.marked q)

let test_queue_policy_sees_occupancy () =
  let sim = Sim.create () in
  let seen = ref [] in
  let policy =
    Marking.make ~name:"spy"
      ~on_enqueue:(fun ~bytes ~packets ->
        seen := `Enq (bytes, packets) :: !seen;
        false)
      ~on_dequeue:(fun ~bytes ~packets ->
        seen := `Deq (bytes, packets) :: !seen)
      ()
  in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:10_000) ~marking:policy () in
  ignore (Q.enqueue q (mk_pkt ~sim ~size:100 ()));
  ignore (Q.enqueue q (mk_pkt ~sim ~size:200 ()));
  ignore (dequeue q);
  Alcotest.check
    (Alcotest.list
       (Alcotest.testable
          (fun ppf -> function
            | `Enq (b, p) -> Format.fprintf ppf "Enq(%d,%d)" b p
            | `Deq (b, p) -> Format.fprintf ppf "Deq(%d,%d)" b p)
          ( = )))
    "occupancies include arriving packet on enqueue, exclude on dequeue"
    [ `Enq (100, 1); `Enq (300, 2); `Deq (200, 1) ]
    (List.rev !seen)

let test_queue_time_weighted_stats () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  (* occupancy 1500 over [0,10us), 3000 over [10,20us), drain at 20us;
     measure at 30us: mean = (1500*10 + 3000*10 + 0*10)/30 = 1500 *)
  ignore (Q.enqueue q (mk_pkt ~sim ~size:1500 ()));
  ignore
    (Sim.schedule_at sim (Time.of_us 10.) (fun () ->
         ignore (Q.enqueue q (mk_pkt ~sim ~size:1500 ()))));
  ignore
    (Sim.schedule_at sim (Time.of_us 20.) (fun () ->
         ignore (dequeue q);
         ignore (dequeue q)));
  Sim.run ~until:(Time.of_us 30.) sim;
  checkf ~eps:1e-6 "mean bytes" 1500. (Q.mean_occupancy_bytes q);
  checkf ~eps:1e-6 "mean pkts" 1. (Q.mean_occupancy_packets q);
  (* variance of {1500,3000,0} equally weighted *)
  checkf ~eps:1e-3 "stddev bytes"
    (sqrt ((1500. ** 2. +. 3000. ** 2. +. 0.) /. 3. -. 1500. ** 2.))
    (Q.stddev_occupancy_bytes q);
  checki "max occupancy" 3000 (Q.max_occupancy_bytes q)

let test_queue_reset_stats () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  ignore (Q.enqueue q (mk_pkt ~sim ~size:1500 ()));
  Sim.run ~until:(Time.of_us 10.) sim;
  Q.reset_stats q;
  Sim.run ~until:(Time.of_us 20.) sim;
  (* After reset, the standing packet still contributes occupancy. *)
  checkf ~eps:1e-6 "mean after reset" 1500. (Q.mean_occupancy_bytes q);
  checki "counters reset" 0 (Q.enqueued q)

(* Every occupancy change reaches the queue's tracer — enqueue, drop
   and dequeue each as one record — which is what lets a trace stand in
   for the queue's own statistics (see the invariants suite). *)
let test_queue_observer () =
  let sim = Sim.create () in
  let seen = ref [] in
  let tracer =
    Obs.Trace.create
      ~classes:Obs.Trace.[ C_enqueue; C_dequeue; C_drop ]
      (Obs.Trace.Fn
         (fun r -> seen := Obs.Trace.cls_of_event r.Obs.Trace.event :: !seen))
  in
  let q =
    Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:2000) ~tracer ()
  in
  ignore (Q.enqueue q (mk_pkt ~sim ~size:1500 ()));
  ignore (Q.enqueue q (mk_pkt ~sim ~size:1500 ()));
  (* dropped, still observed *)
  ignore (dequeue q);
  checkb "enqueue, drop, dequeue" true
    (List.rev !seen = Obs.Trace.[ C_enqueue; C_drop; C_dequeue ])

(* With the analyzer attached, enqueue and dequeue allocate nothing:
   occupancy events reach Obs.Analyze as immediate arguments through
   [Trace.emit_occ], never as records. The sawtooth crosses the
   analyzer's band (cycles) and the marking threshold (marks), and the
   clock moves between sawtooths so grid samples are taken too. *)
let test_queue_traced_zero_alloc () =
  let sim = Sim.create () in
  let an =
    Obs.Analyze.create
      {
        Obs.Analyze.sample_period = Time.span_of_int_ns 500;
        band_bytes = Some (6_000, 12_000);
        n_flows = 4;
        rtt = Time.span_of_int_ns 10_000;
        segment_bytes = 1500;
      }
  in
  let q =
    Q.create sim
      ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:30_000)
      ~marking:(Dctcp.Marking_policies.single_threshold ~k_bytes:9_000)
      ~tracer:(Obs.Analyze.tracer an) ()
  in
  let st = Packet.store_of sim in
  let depth = 16 in
  let sawtooth () =
    for i = 1 to depth do
      ignore
        (Q.enqueue q
           (Packet.make st ~src:0 ~dst:1 ~flow:(i land 3) ~size:1500
              ~ecn:Packet.Ect Packet.No_payload))
    done;
    for _ = 1 to depth do
      Packet.free st (Q.dequeue_exn q)
    done
  in
  sawtooth () (* warm the packet pool *);
  let words = [| 0. |] and cycles = 200 in
  for k = 1 to cycles do
    Sim.run ~until:(Time.of_int_ns (k * 1_000)) sim;
    let before = Gc.minor_words () in
    sawtooth ();
    words.(0) <- words.(0) +. (Gc.minor_words () -. before)
  done;
  checki "marks taken" (cycles * 10 + 10) (Q.marked q);
  let s = Obs.Analyze.summary an in
  checkb "analyzer saw every event" true
    (s.Obs.Analyze.records = (cycles + 1) * (2 * depth + 10));
  checkb "cycles detected" true (s.Obs.Analyze.cycles > 0);
  checkf "words per enqueue+dequeue" 0.
    (words.(0) /. float_of_int (cycles * depth))

let test_queue_validation () =
  let sim = Sim.create () in
  checkb "bad capacity raises" true
    (match Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:0) () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Port --- *)

let test_port_serialization_timing () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  let arrivals = ref [] in
  let port =
    Net.Port.create sim ~rate_bps:1e9 ~delay:(Time.span_of_us 10.) ~queue:q
      ~deliver:(fun pkt ->
        arrivals :=
          (Time.to_sec (Sim.now sim), Packet.id (Packet.store_of sim) pkt)
          :: !arrivals)
  in
  (* 1500 B at 1 Gbps = 12 us serialization + 10 us propagation. *)
  let p = mk_pkt ~sim ~size:1500 () in
  Net.Port.send port p;
  Sim.run sim;
  (match !arrivals with
  | [ (t, _) ] -> checkf ~eps:1e-9 "arrival time" 22e-6 t
  | _ -> Alcotest.fail "expected one arrival");
  checki "bytes sent" 1500 (Net.Port.bytes_sent port);
  checki "packets sent" 1 (Net.Port.packets_sent port)

let test_port_back_to_back () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  let arrivals = ref [] in
  let port =
    Net.Port.create sim ~rate_bps:1e9 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver:(fun _ ->
        arrivals := Time.to_sec (Sim.now sim) :: !arrivals)
  in
  Net.Port.send port (mk_pkt ~sim ~size:1500 ());
  Net.Port.send port (mk_pkt ~sim ~size:1500 ());
  Sim.run sim;
  (match List.rev !arrivals with
  | [ t1; t2 ] ->
      checkf ~eps:1e-9 "first at 12us" 12e-6 t1;
      checkf ~eps:1e-9 "second serialized after first" 24e-6 t2
  | _ -> Alcotest.fail "expected two arrivals")

let test_port_tx_time () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1000) () in
  let port =
    Net.Port.create sim ~rate_bps:10e9 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver:ignore
  in
  Alcotest.check Alcotest.int "1500B at 10G = 1.2us" 1200
    (Time.span_to_int_ns (Net.Port.tx_time port ~bytes:1500))

let test_port_reset_counters () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:10_000) () in
  let port = Net.Port.create sim ~rate_bps:1e9 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver:ignore in
  Net.Port.send port (mk_pkt ~sim ~size:1000 ());
  Sim.run sim;
  Net.Port.reset_counters port;
  checki "bytes zero" 0 (Net.Port.bytes_sent port);
  checki "packets zero" 0 (Net.Port.packets_sent port)

let test_port_drops_dont_transmit () =
  let sim = Sim.create () in
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1000) () in
  let count = ref 0 in
  let port =
    Net.Port.create sim ~rate_bps:1e6 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver:(fun _ ->
        incr count)
  in
  (* The first is dequeued for transmission immediately, so the queue can
     hold one more; the third must be dropped. *)
  Net.Port.send port (mk_pkt ~sim ~size:800 ());
  Net.Port.send port (mk_pkt ~sim ~size:800 ());
  Net.Port.send port (mk_pkt ~sim ~size:800 ());
  Sim.run sim;
  checki "two delivered" 2 !count;
  checki "one dropped" 1 (Q.drops q)

(* --- Host --- *)

let test_host_dispatch () =
  let sim = Sim.create () in
  let h = Net.Host.create sim ~id:5 in
  let st = Packet.store_of sim in
  let live0 = Packet.live_count st in
  let got = ref [] in
  Net.Host.bind_flow h ~flow:1 (fun p -> got := Packet.flow st p :: !got);
  Net.Host.receive h (mk_pkt ~sim ~flow:1 ());
  Net.Host.receive h (mk_pkt ~sim ~flow:2 ());
  checki "dispatched" 1 (List.length !got);
  (* The claimed packet is the handler's to free; the host consumes the
     unclaimed one. *)
  checki "unclaimed packet freed" (live0 + 1) (Packet.live_count st)

let test_host_double_bind () =
  let sim = Sim.create () in
  let h = Net.Host.create sim ~id:0 in
  Net.Host.bind_flow h ~flow:1 ignore;
  checkb "double bind raises" true
    (match Net.Host.bind_flow h ~flow:1 ignore with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Net.Host.unbind_flow h ~flow:1;
  Net.Host.bind_flow h ~flow:1 ignore

(* The host's flow table against a model: random binds, unbinds and
   deliveries over flow ids that collide in the probe table (ids sharing
   low bits, growth past several sizes, backward-shift deletion in the
   middle of probe runs). Every delivery must reach exactly the handler
   the model names, or the unbound sink; binding a bound flow raises. *)
let prop_host_flow_table =
  QCheck.Test.make ~count:300 ~name:"Host flow table matches a model"
    QCheck.(
      list_of_size Gen.(int_range 0 300)
        (pair (int_bound 2)
           (map (fun (hi, lo) -> (hi * 64) + lo) (pair (int_bound 40) (int_bound 7)))))
    (fun ops ->
      let sim = Sim.create () in
      let h = Net.Host.create sim ~id:0 in
      let st = Packet.store_of sim in
      let model = Hashtbl.create 16 in
      let got = ref (-1) in
      let serial = ref 0 in
      List.for_all
        (fun (op, flow) ->
          match op with
          | 0 ->
              let tag = !serial in
              incr serial;
              let raised =
                match
                  Net.Host.bind_flow h ~flow (fun p ->
                      got := tag;
                      Packet.free st p)
                with
                | () -> false
                | exception Invalid_argument _ -> true
              in
              if raised then Hashtbl.mem model flow
              else begin
                let fresh = not (Hashtbl.mem model flow) in
                Hashtbl.replace model flow tag;
                fresh
              end
          | 1 ->
              Net.Host.unbind_flow h ~flow;
              Hashtbl.remove model flow;
              true
          | _ ->
              got := -1;
              let live = Packet.live_count st in
              Net.Host.receive h (mk_pkt ~sim ~flow ());
              Packet.live_count st = live
              &&
              match Hashtbl.find_opt model flow with
              | Some tag -> !got = tag
              | None -> !got = -1)
        ops)

let test_host_nic_errors () =
  let sim = Sim.create () in
  let h = Net.Host.create sim ~id:0 in
  checkb "nic before attach raises" true
    (match Net.Host.nic h with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Switch --- *)

let mk_port sim deliver =
  let q = Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:1_000_000) () in
  Net.Port.create sim ~rate_bps:1e9 ~delay:(Time.span_of_int_ns 0) ~queue:q ~deliver

let test_switch_routing () =
  let sim = Sim.create () in
  let sw = Net.Switch.create sim ~id:0 () in
  let to_a = ref 0 and to_b = ref 0 in
  let pa = mk_port sim (fun _ -> incr to_a) in
  let pb = mk_port sim (fun _ -> incr to_b) in
  let ia = Net.Switch.add_port sw pa in
  let ib = Net.Switch.add_port sw pb in
  Net.Switch.set_route sw ~dst:1 ~port:ia;
  Net.Switch.set_route sw ~dst:2 ~port:ib;
  Net.Switch.receive sw (mk_pkt ~sim ~dst:1 ());
  Net.Switch.receive sw (mk_pkt ~sim ~dst:2 ());
  Net.Switch.receive sw (mk_pkt ~sim ~dst:2 ());
  Sim.run sim;
  checki "a got one" 1 !to_a;
  checki "b got two" 2 !to_b;
  checki "port count" 2 (Net.Switch.port_count sw)

let test_switch_no_route () =
  let sim = Sim.create () in
  let sw = Net.Switch.create sim ~id:0 () in
  Net.Switch.receive sw (mk_pkt ~sim ~dst:42 ());
  checki "counted" 1 (Net.Switch.no_route_drops sw)

let test_switch_bad_port () =
  let sim = Sim.create () in
  let sw = Net.Switch.create sim ~id:0 () in
  checkb "bad route raises" true
    (match Net.Switch.set_route sw ~dst:1 ~port:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad port raises" true
    (match Net.Switch.port sw 3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Topology --- *)

let test_dumbbell_connectivity () =
  let sim = Sim.create () in
  let d =
    Net.Topology.dumbbell sim ~n_senders:3 ~bottleneck_rate_bps:1e9
      ~rtt:(Time.span_of_us 100.) ~buffer_bytes:100_000
      ~marking:(Marking.none ()) ()
  in
  checki "three senders" 3 (Array.length d.Net.Topology.senders);
  let got = ref 0 in
  Net.Host.bind_flow d.Net.Topology.receiver ~flow:9 (fun _ -> incr got);
  Array.iter
    (fun s ->
      Net.Host.send s
        (mk_pkt ~sim
           ~src:(Net.Host.id s)
           ~dst:(Net.Host.id d.Net.Topology.receiver)
           ~flow:9 ()))
    d.Net.Topology.senders;
  Sim.run sim;
  checki "all delivered" 3 !got

let test_dumbbell_reverse_path () =
  let sim = Sim.create () in
  let d =
    Net.Topology.dumbbell sim ~n_senders:2 ~bottleneck_rate_bps:1e9
      ~rtt:(Time.span_of_us 100.) ~buffer_bytes:100_000
      ~marking:(Marking.none ()) ()
  in
  let got = ref 0 in
  Net.Host.bind_flow d.Net.Topology.senders.(1) ~flow:3 (fun _ -> incr got);
  Net.Host.send d.Net.Topology.receiver
    (mk_pkt ~sim
       ~src:(Net.Host.id d.Net.Topology.receiver)
       ~dst:(Net.Host.id d.Net.Topology.senders.(1))
       ~flow:3 ());
  Sim.run sim;
  checki "ack path works" 1 !got

let test_dumbbell_rtt () =
  (* One-way latency for a small packet should be half the propagation RTT
     plus serialization at both hops. *)
  let sim = Sim.create () in
  let d =
    Net.Topology.dumbbell sim ~n_senders:1 ~bottleneck_rate_bps:1e9
      ~rtt:(Time.span_of_us 100.) ~buffer_bytes:100_000
      ~marking:(Marking.none ()) ()
  in
  let arrival = ref 0. in
  Net.Host.bind_flow d.Net.Topology.receiver ~flow:0 (fun _ ->
      arrival := Time.to_sec (Sim.now sim));
  Net.Host.send d.Net.Topology.senders.(0)
    (mk_pkt ~sim ~src:0 ~dst:(Net.Host.id d.Net.Topology.receiver) ~size:1500 ());
  Sim.run sim;
  (* 25us + 25us propagation + 2 * 12us serialization at 1 Gbps *)
  checkf ~eps:1e-7 "one-way latency" 74e-6 !arrival

let test_dumbbell_bottleneck_marks () =
  let sim = Sim.create () in
  let d =
    Net.Topology.dumbbell sim ~n_senders:1 ~bottleneck_rate_bps:1e9
      ~rtt:(Time.span_of_us 100.) ~buffer_bytes:100_000
      ~marking:
        (Marking.make ~name:"always"
           ~on_enqueue:(fun ~bytes:_ ~packets:_ -> true)
           ~on_dequeue:(fun ~bytes:_ ~packets:_ -> ())
           ())
      ()
  in
  let ce = ref false in
  Net.Host.bind_flow d.Net.Topology.receiver ~flow:0 (fun p ->
      ce := Packet.is_ce (Packet.store_of sim) p);
  Net.Host.send d.Net.Topology.senders.(0)
    (mk_pkt ~sim ~src:0 ~dst:(Net.Host.id d.Net.Topology.receiver) ());
  Sim.run sim;
  checkb "bottleneck marked data" true !ce

let test_star_connectivity () =
  let sim = Sim.create () in
  let s =
    Net.Topology.star_testbed sim ~rate_bps:1e9 ~bottleneck_buffer:128_000
      ~marking:(Marking.none ()) ()
  in
  checki "nine workers" 9 (Array.length s.Net.Topology.workers);
  checki "three leaves" 3 (Array.length s.Net.Topology.leaves);
  let got = ref 0 in
  Net.Host.bind_flow s.Net.Topology.aggregator ~flow:1 (fun _ -> incr got);
  Array.iter
    (fun w ->
      Net.Host.send w
        (mk_pkt ~sim
           ~src:(Net.Host.id w)
           ~dst:(Net.Host.id s.Net.Topology.aggregator)
           ~flow:1 ()))
    s.Net.Topology.workers;
  Sim.run sim;
  checki "all workers reach aggregator" 9 !got

let test_star_reverse_and_cross () =
  let sim = Sim.create () in
  let s =
    Net.Topology.star_testbed sim ~rate_bps:1e9 ~bottleneck_buffer:128_000
      ~marking:(Marking.none ()) ()
  in
  let w0 = s.Net.Topology.workers.(0) in
  let w8 = s.Net.Topology.workers.(8) in
  let got_w0 = ref 0 and got_w8 = ref 0 in
  Net.Host.bind_flow w0 ~flow:2 (fun _ -> incr got_w0);
  Net.Host.bind_flow w8 ~flow:3 (fun _ -> incr got_w8);
  (* aggregator -> worker *)
  Net.Host.send s.Net.Topology.aggregator
    (mk_pkt ~sim
       ~src:(Net.Host.id s.Net.Topology.aggregator)
       ~dst:(Net.Host.id w0) ~flow:2 ());
  (* worker -> worker across leaves *)
  Net.Host.send w0
    (mk_pkt ~sim ~src:(Net.Host.id w0) ~dst:(Net.Host.id w8) ~flow:3 ());
  Sim.run sim;
  checki "agg to worker" 1 !got_w0;
  checki "worker to worker" 1 !got_w8

let test_parking_lot_connectivity () =
  let sim = Sim.create () in
  let pl =
    Net.Topology.parking_lot sim ~hops:3 ~rate_bps:1e9
      ~buffer_bytes:100_000 ~marking:(fun () -> Marking.none ()) ()
  in
  checki "four switches" 4 (Array.length pl.Net.Topology.chain);
  checki "three trunks" 3 (Array.length pl.Net.Topology.trunks);
  (* long path end to end *)
  let got_long = ref 0 in
  Net.Host.bind_flow pl.Net.Topology.long_dst ~flow:7 (fun _ -> incr got_long);
  Net.Host.send pl.Net.Topology.long_src
    (mk_pkt ~sim
       ~src:(Net.Host.id pl.Net.Topology.long_src)
       ~dst:(Net.Host.id pl.Net.Topology.long_dst)
       ~flow:7 ());
  (* every cross path *)
  let got_cross = Array.map (fun _ -> ref 0) pl.Net.Topology.cross_dsts in
  Array.iteri
    (fun i dst ->
      Net.Host.bind_flow dst ~flow:(20 + i) (fun _ -> incr got_cross.(i));
      Net.Host.send pl.Net.Topology.cross_srcs.(i)
        (mk_pkt ~sim
           ~src:(Net.Host.id pl.Net.Topology.cross_srcs.(i))
           ~dst:(Net.Host.id dst) ~flow:(20 + i) ()))
    pl.Net.Topology.cross_dsts;
  (* reverse path for the long flow (ACKs) *)
  let got_rev = ref 0 in
  Net.Host.bind_flow pl.Net.Topology.long_src ~flow:9 (fun _ -> incr got_rev);
  Net.Host.send pl.Net.Topology.long_dst
    (mk_pkt ~sim
       ~src:(Net.Host.id pl.Net.Topology.long_dst)
       ~dst:(Net.Host.id pl.Net.Topology.long_src)
       ~flow:9 ());
  Sim.run sim;
  checki "long delivered" 1 !got_long;
  Array.iteri
    (fun i r -> checki (Printf.sprintf "cross %d delivered" i) 1 !r)
    got_cross;
  checki "reverse delivered" 1 !got_rev

let test_parking_lot_per_trunk_marking () =
  (* Fresh policy per trunk: marking one trunk's queue must not mark
     another's. *)
  let sim = Sim.create () in
  let instances = ref 0 in
  let pl =
    Net.Topology.parking_lot sim ~hops:2 ~rate_bps:1e9 ~buffer_bytes:100_000
      ~marking:(fun () ->
        incr instances;
        Marking.none ())
      ()
  in
  ignore pl;
  checki "one policy per trunk" 2 !instances

let test_parking_lot_validation () =
  let sim = Sim.create () in
  checkb "needs hops" true
    (match
       Net.Topology.parking_lot sim ~hops:0 ~rate_bps:1e9 ~buffer_bytes:1000
         ~marking:(fun () -> Marking.none ())
         ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- cross-validation invariants --- *)

(* The queue's built-in time-weighted statistics must agree with the
   statistics of an exhaustive occupancy trace. Every enqueue, dequeue
   and drop record carries the occupancy after it (a drop leaves it
   unchanged), so the records define
   the occupancy step function exactly; its integrals are computed here
   in two passes, independently of the queue's running sums. *)
let test_queue_stats_match_trace () =
  let sim = Sim.create ~seed:77L () in
  let last = ref 0 and occ = ref 0 and steps = ref [] in
  let advance t_ns =
    steps := (float_of_int (t_ns - !last) /. 1e9, float_of_int !occ) :: !steps;
    last := t_ns
  in
  let on_record (r : Obs.Trace.record) =
    match r.Obs.Trace.event with
    | Obs.Trace.Enqueue { occ_bytes; _ }
    | Obs.Trace.Dequeue { occ_bytes; _ }
    | Obs.Trace.Drop { occ_bytes; _ } ->
        advance (Time.to_int_ns r.Obs.Trace.time);
        occ := occ_bytes
    | _ -> ()
  in
  let tracer =
    Obs.Trace.create
      ~classes:Obs.Trace.[ C_enqueue; C_dequeue; C_drop ]
      (Obs.Trace.Fn on_record)
  in
  let q =
    Q.create sim ~buffer:(Net.Buffer_mgr.solo ~capacity_bytes:20_000) ~tracer ()
  in
  let rng = Engine.Rng.create ~seed:3L in  (* dtlint: allow R10 *)
  for i = 1 to 400 do
    let at = Time.of_us (float_of_int i *. 7.) in
    ignore
      (Sim.schedule_at sim at (fun () ->
           if Engine.Rng.int rng ~bound:2 = 1 then
             ignore (Q.enqueue q (mk_pkt ~sim ~size:(500 + Engine.Rng.int rng ~bound:1000) ()))
           else ignore (dequeue q)))
  done;
  let t_end = Time.of_us 3000. in
  Sim.run ~until:t_end sim;
  advance (Time.to_int_ns t_end);
  let span = Time.to_sec t_end in
  let integral f = List.fold_left (fun acc (dt, v) -> acc +. (f v *. dt)) 0. !steps in
  let trace_mean = integral Fun.id /. span in
  let trace_std =
    sqrt (integral (fun v -> (v -. trace_mean) *. (v -. trace_mean)) /. span)
  in
  checkf ~eps:1e-3 "means agree" trace_mean (Q.mean_occupancy_bytes q);
  checkf ~eps:1e-3 "stddevs agree" trace_std (Q.stddev_occupancy_bytes q)

(* Packet conservation at the bottleneck: everything accepted is either
   transmitted or still queued once the network is idle. *)
let test_bottleneck_conservation () =
  let sim = Sim.create ~seed:9L () in
  let d =
    Net.Topology.dumbbell sim ~n_senders:3 ~bottleneck_rate_bps:1e9
      ~rtt:(Time.span_of_us 100.) ~buffer_bytes:(30 * 1500)
      ~marking:(Marking.none ()) ()
  in
  let flows =
    Array.mapi
      (fun i src ->
        Tcp.Flow.create sim ~src ~dst:d.Net.Topology.receiver ~flow:i
          ~cc:Tcp.Cc.reno
          ~config:
            {
              Tcp.Sender.default_config with
              min_rto = Time.span_of_ms 10.;
            }
          ~limit_segments:400 ())
      d.Net.Topology.senders
  in
  Array.iter Tcp.Flow.start flows;
  Sim.run sim;
  (* all flows done, network fully drained *)
  Array.iter (fun f -> checkb "flow completed" true (Tcp.Flow.completed f)) flows;
  let q = Net.Port.queue d.Net.Topology.bottleneck in
  checki "queue drained" 0 (Q.occupancy_packets q);
  checki "accepted = transmitted"
    (Q.enqueued q)
    (Net.Port.packets_sent d.Net.Topology.bottleneck);
  (* every data segment the receiver delivered crossed the bottleneck *)
  let delivered =
    Array.fold_left (fun a f -> a + Tcp.Flow.segments_delivered f) 0 flows
  in
  checki "all segments delivered" (3 * 400) delivered

(* --- Buffer_mgr: private buffers and the shared Dynamic-Threshold
   pool --- *)

module B = Net.Buffer_mgr

let test_buffer_solo_boundary () =
  let p = B.solo ~capacity_bytes:3000 in
  checkb "not shared" false (B.shared p);
  checki "limit is the capacity" 3000 (B.effective_limit p);
  checkb "admits up to capacity" true (B.admit p 1500);
  checkb "fills exactly" true (B.admit p 1500);
  checkb "rejects past capacity" false (B.admit p 1);
  checki "occupancy" 3000 (B.occupancy p);
  B.release p 1500;
  checkb "admits after release" true (B.admit p 1500);
  checkb "zero capacity raises" true
    (match B.solo ~capacity_bytes:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_buffer_dt_limit_moves () =
  let pool = B.create_pool ~pool_bytes:10_000 ~alpha:1.0 in
  let a = B.attach pool and b = B.attach pool in
  checkb "shared" true (B.shared a);
  checki "empty pool: limit = alpha x B" 10_000 (B.effective_limit a);
  checkb "a admits" true (B.admit a 4_000);
  (* The other port's limit moved even though it never enqueued. *)
  checki "limit = alpha x free" 6_000 (B.effective_limit b);
  checkb "b admits the rest" true (B.admit b 6_000);
  checki "full pool: limit 0" 0 (B.effective_limit a);
  checkb "full pool rejects" false (B.admit a 1);
  B.release b 6_000;
  checki "limit recovers on release" 6_000 (B.effective_limit a);
  checki "pool used tracks both ports" 4_000 (B.pool_used b)

let test_buffer_dt_alpha_above_one () =
  let pool = B.create_pool ~pool_bytes:10_000 ~alpha:4.0 in
  let p = B.attach pool in
  (* alpha x free = 40_000 over an empty pool: the announced limit is
     clamped to the memory that exists. *)
  checki "limit clamped to pool size" 10_000 (B.effective_limit p);
  checkb "big admit" true (B.admit p 9_000);
  (* A second, empty port now sees limit = 4 x 1000 = 4000 — more than
     the 1000 bytes of memory that actually remain. The second
     admission conjunct must keep the pool from overfilling. *)
  let q = B.attach pool in
  checki "limit exceeds free memory" 4_000 (B.effective_limit q);
  checkb "beyond free memory rejected" false (B.admit q 1_500);
  checkb "within free memory admitted" true (B.admit q 1_000);
  checki "pool exactly full" 10_000 (B.pool_used p);
  checki "reject was counted" 1 (B.pool_rejects p);
  checkb "alpha below 1/1024 raises" true
    (match B.create_pool ~pool_bytes:1000 ~alpha:0.0001 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_buffer_dt_high_water_poll () =
  let pool = B.create_pool ~pool_bytes:10_000 ~alpha:1.0 in
  let p = B.attach pool in
  checki "nothing to announce" (-1) (B.poll_high_water p);
  ignore (B.admit p 1_500);
  checki "new peak announced" 1_500 (B.poll_high_water p);
  checki "announced once" (-1) (B.poll_high_water p);
  B.release p 1_500;
  ignore (B.admit p 1_000);
  checki "below the old peak: silent" (-1) (B.poll_high_water p);
  ignore (B.admit p 1_500);
  checki "fresh peak announced" 2_500 (B.poll_high_water p);
  checki "high water is sticky" 2_500 (B.pool_high_water p);
  checki "solo ports never announce" (-1)
    (B.poll_high_water (B.solo ~capacity_bytes:1000))

(* Conservation: however admissions and releases interleave across the
   ports of one pool, the per-port occupancies always sum to the pool's
   used counter and the pool never exceeds its size. *)
let prop_buffer_pool_conservation =
  QCheck.Test.make ~count:300
    ~name:"shared pool conserves bytes across ports"
    QCheck.(
      pair (int_range 1 4)
        (list_of_size
           Gen.(int_range 1 300)
           (triple bool (int_bound 3) (int_range 1 3_000))))
    (fun (n_ports, ops) ->
      let size = 20_000 in
      let pool = B.create_pool ~pool_bytes:size ~alpha:2.0 in
      let ports = Array.init n_ports (fun _ -> B.attach pool) in
      (* FIFO of admitted sizes per port, so releases mirror dequeues. *)
      let queued = Array.make n_ports [] in
      List.for_all
        (fun (is_admit, pi, sz) ->
          let i = pi mod n_ports in
          let p = ports.(i) in
          (if is_admit then begin
             if B.admit p sz then queued.(i) <- queued.(i) @ [ sz ]
           end
           else
             match queued.(i) with
             | [] -> ()
             | sz :: rest ->
                 B.release p sz;
                 queued.(i) <- rest);
          let sum =
            Array.fold_left (fun acc q -> acc + B.occupancy q) 0 ports
          in
          sum = B.pool_used p
          && B.pool_used p <= size
          && B.pool_high_water p >= B.pool_used p
          && Array.for_all (fun q -> B.occupancy q >= 0) ports)
        ops)

(* Equivalence with the naive float model: for any alpha that is an
   exact multiple of 1/1024 (which is what create_pool quantises to),
   the integer hot path must make exactly the admission decisions of
   the textbook formulation [T = min (B, floor (alpha x free))]. *)
let prop_buffer_dt_matches_float_model =
  QCheck.Test.make ~count:300
    ~name:"DT integer admission equals the float model (alpha = i/1024)"
    QCheck.(
      pair (int_range 1 8192)
        (list_of_size
           Gen.(int_range 1 200)
           (pair bool (int_range 1 3_000))))
    (fun (ax, ops) ->
      let size = 50_000 in
      let alpha = float_of_int ax /. 1024. in
      let pool = B.create_pool ~pool_bytes:size ~alpha in
      let p = B.attach pool in
      let occ = ref 0 in
      let fifo = Queue.create () in
      List.for_all
        (fun (is_admit, sz) ->
          let model_limit =
            Stdlib.min size
              (int_of_float (alpha *. float_of_int (size - !occ)))
          in
          let limits_agree = model_limit = B.effective_limit p in
          if is_admit then begin
            let model_admits =
              !occ + sz <= model_limit && !occ + sz <= size
            in
            let got = B.admit p sz in
            if got then begin
              occ := !occ + sz;
              Queue.push sz fifo
            end;
            limits_agree && Bool.equal model_admits got
          end
          else if Queue.is_empty fifo then limits_agree
          else begin
            let sz = Queue.pop fifo in
            B.release p sz;
            occ := !occ - sz;
            limits_agree
          end)
        ops)

(* --- ECMP groups --- *)

let test_ecmp_select_basic () =
  let ports = [| 3; 5; 9 |] in
  let g = Net.Ecmp.make_group ~salt:42L ~ports in
  (* make_group copies: later caller mutation cannot reach the group. *)
  ports.(0) <- 100;
  let picked =
    List.init 64 (fun flow -> Net.Ecmp.select g ~src:1 ~dst:2 ~flow)
  in
  checkb "every pick from the original set" true
    (List.for_all (fun p -> p = 3 || p = 5 || p = 9) picked);
  checkb "all three ports reachable" true
    (List.mem 3 picked && List.mem 5 picked && List.mem 9 picked);
  let p = Net.Ecmp.select g ~src:1 ~dst:2 ~flow:7 in
  checki "same 5-tuple, same port" p (Net.Ecmp.select g ~src:1 ~dst:2 ~flow:7)

let test_ecmp_validation () =
  checkb "empty set raises" true
    (match Net.Ecmp.make_group ~salt:1L ~ports:[||] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "negative port raises" true
    (match Net.Ecmp.make_group ~salt:1L ~ports:[| 0; -1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Selection is a pure function of (salt, src, dst, flow): two
   identically-salted groups agree, repeats agree, and the pick is
   always a member of the set. *)
let prop_ecmp_flow_stickiness =
  QCheck.Test.make ~count:500 ~name:"ECMP selection sticky per 5-tuple"
    QCheck.(
      quad int64 (int_bound 1_000) (int_bound 1_000) (int_bound 100_000))
    (fun (salt, src, dst, flow) ->
      let ports = [| 0; 1; 2; 3 |] in
      let g = Net.Ecmp.make_group ~salt ~ports in
      let g' = Net.Ecmp.make_group ~salt ~ports in
      let p = Net.Ecmp.select g ~src ~dst ~flow in
      p >= 0 && p < 4
      && p = Net.Ecmp.select g ~src ~dst ~flow
      && p = Net.Ecmp.select g' ~src ~dst ~flow)

(* Chi-squared balance check: over n = 1000 x width sequential flows the
   per-port counts must look uniform. For a uniform hash the statistic
   is chi-squared with w - 1 degrees of freedom, so the bound is that
   distribution's upper quantile at a false-alarm rate of 1e-9 per case,
   tabulated (rounded up) for w = 2..8 — for w = 3 it is 2 ln 1e9 = 41.45.
   A biased hash still fails decisively: [hash mod width] over sequential
   flows without mixing concentrates whole residue classes on one port
   and scores in the thousands. *)
let chi2_bound w = [| 37.33; 41.45; 44.85; 47.88; 50.70; 53.35; 55.88 |].(w - 2)

let chi2_of_counts counts =
  let n = Array.fold_left ( + ) 0 counts in
  let e = float_of_int n /. float_of_int (Array.length counts) in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. e in
      acc +. (d *. d /. e))
    0. counts

let prop_ecmp_balance =
  QCheck.Test.make ~count:50 ~name:"ECMP spreads flows evenly (chi-squared)"
    QCheck.(pair int64 (int_range 2 8))
    (fun (salt, w) ->
      let g = Net.Ecmp.make_group ~salt ~ports:(Array.init w Fun.id) in
      let counts = Array.make w 0 in
      for flow = 0 to (1_000 * w) - 1 do
        let p =
          Net.Ecmp.select g ~src:(flow mod 17) ~dst:(flow mod 23) ~flow
        in
        counts.(p) <- counts.(p) + 1
      done;
      chi2_of_counts counts < chi2_bound w)

(* The bound still has teeth: a 60/40 split of 2000 flows over two
   ports scores 80, twice the w = 2 bound. *)
let test_ecmp_chi2_rejects_skew () =
  let chi2 = chi2_of_counts [| 1_200; 800 |] in
  checkf ~eps:1e-9 "60/40 split scores 80" 80. chi2;
  checkb "60/40 split fails the bound" false (chi2 < chi2_bound 2)

let test_switch_ecmp_routing () =
  let sim = Sim.create () in
  let sw = Net.Switch.create sim ~id:0 () in
  let counts = Array.make 3 0 in
  let idx =
    Array.init 3 (fun i ->
        Net.Switch.add_port sw
          (mk_port sim (fun _ -> counts.(i) <- counts.(i) + 1)))
  in
  let gi = Net.Switch.add_group sw ~salt:7L ~ports:idx in
  checki "first group index" 0 gi;
  Net.Switch.set_group_route sw ~dst:9 ~group:gi;
  let send_all () =
    for f = 0 to 29 do
      Net.Switch.receive sw (mk_pkt ~sim ~src:1 ~dst:9 ~flow:f ())
    done;
    Sim.run sim
  in
  send_all ();
  let first = Array.copy counts in
  checki "every packet went somewhere" 30
    (Array.fold_left ( + ) 0 first);
  checkb "group used more than one port" true
    (Array.for_all (fun c -> c > 0) first);
  (* Per-flow stickiness: the same flows again land on the same ports. *)
  send_all ();
  Array.iteri
    (fun i n ->
      checki (Printf.sprintf "port %d deliveries doubled" i) (2 * n) counts.(i))
    first;
  checkb "bad group raises" true
    (match Net.Switch.set_group_route sw ~dst:1 ~group:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_switch_no_route_trace_and_metric () =
  let sim = Sim.create () in
  let ring = Obs.Trace.ring ~capacity:16 in
  let tracer =
    Obs.Trace.create ~classes:[ Obs.Trace.C_no_route_drop ]
      (Obs.Trace.Ring ring)
  in
  let metrics = Obs.Metrics.create () in
  let sw = Net.Switch.create sim ~id:3 ~tracer ~metrics () in
  Net.Switch.receive sw (mk_pkt ~sim ~flow:5 ~dst:42 ());
  checki "counted" 1 (Net.Switch.no_route_drops sw);
  (match Obs.Trace.ring_records ring with
  | [ { Obs.Trace.component; event = Obs.Trace.No_route_drop { flow; dst }; _ } ]
    ->
      Alcotest.check Alcotest.string "component" "sw3" component;
      checki "flow" 5 flow;
      checki "dst" 42 dst
  | rs -> Alcotest.failf "expected one no_route_drop, got %d" (List.length rs));
  match
    List.assoc_opt "switch.sw3.no_route_drops" (Obs.Metrics.snapshot metrics)
  with
  | Some v -> checkf "probe" 1.0 v
  | None -> Alcotest.fail "switch.sw3.no_route_drops probe missing"

(* --- Fat tree --- *)

let test_fat_tree_wiring () =
  let sim = Sim.create () in
  let ft =
    Net.Topology.fat_tree sim ~k:4 ~marking:(fun () -> Net.Marking.none ()) ()
  in
  checki "k" 4 ft.Net.Topology.k;
  checki "hosts = k^3/4" 16 (Array.length ft.Net.Topology.hosts);
  checki "edges = k^2/2" 8 (Array.length ft.Net.Topology.edges);
  checki "aggs = k^2/2" 8 (Array.length ft.Net.Topology.aggs);
  checki "cores = (k/2)^2" 4 (Array.length ft.Net.Topology.cores);
  (* Each edge: k/2 host ports + k/2 uplinks; each agg: k/2 down +
     k/2 up; each core: one port per pod. *)
  Array.iter
    (fun sw -> checki "edge degree" 4 (Net.Switch.port_count sw))
    ft.Net.Topology.edges;
  Array.iter
    (fun sw -> checki "agg degree" 4 (Net.Switch.port_count sw))
    ft.Net.Topology.aggs;
  Array.iter
    (fun sw -> checki "core degree" 4 (Net.Switch.port_count sw))
    ft.Net.Topology.cores;
  checkb "odd k raises" true
    (match
       Net.Topology.fat_tree sim ~k:3
         ~marking:(fun () -> Net.Marking.none ())
         ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Every ordered host pair exchanges one packet: all 240 deliveries
   arrive and no switch anywhere records a no-route drop. *)
let test_fat_tree_all_pairs () =
  let sim = Sim.create () in
  let ft =
    Net.Topology.fat_tree sim ~k:4 ~marking:(fun () -> Net.Marking.none ()) ()
  in
  let hosts = ft.Net.Topology.hosts in
  let n = Array.length hosts in
  let got = ref 0 in
  Array.iter
    (fun h -> Net.Host.bind_flow h ~flow:1 (fun _ -> incr got))
    hosts;
  Array.iteri
    (fun s src ->
      Array.iteri
        (fun d _ ->
          if s <> d then
            Net.Host.send src
              (mk_pkt ~sim ~src:s ~dst:d ~flow:1 ()))
        hosts)
    hosts;
  Sim.run sim;
  checki "all pairs delivered" (n * (n - 1)) !got;
  let no_route =
    Array.fold_left (fun a sw -> a + Net.Switch.no_route_drops sw) 0
  in
  checki "no no-route drops" 0
    (no_route ft.Net.Topology.edges
    + no_route ft.Net.Topology.aggs
    + no_route ft.Net.Topology.cores)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "net.packet",
      [
        Alcotest.test_case "fields" `Quick test_packet_fields;
        Alcotest.test_case "unique ids" `Quick test_packet_ids_unique;
        Alcotest.test_case "per-sim id determinism" `Quick
          test_packet_ids_per_sim;
        Alcotest.test_case "CE marking" `Quick test_packet_mark;
        Alcotest.test_case "not-ect immune to marking" `Quick
          test_packet_mark_not_ect;
        Alcotest.test_case "size validation" `Quick test_packet_bad_size;
        Alcotest.test_case "double free detected" `Quick
          test_packet_double_free;
        Alcotest.test_case "pool reaches steady state" `Quick
          test_packet_pool_steady;
        Alcotest.test_case "enqueue stamps admission time" `Quick
          test_packet_enq_ns_stamp;
      ] );
    ( "net.marking",
      [
        Alcotest.test_case "none never marks" `Quick test_marking_none;
      ] );
    ( "net.queue_disc",
      [
        Alcotest.test_case "FIFO order" `Quick test_queue_fifo_order;
        Alcotest.test_case "occupancy accounting" `Quick test_queue_occupancy;
        Alcotest.test_case "tail drop" `Quick test_queue_tail_drop;
        Alcotest.test_case "policy marking" `Quick test_queue_marks_via_policy;
        Alcotest.test_case "policy occupancy view" `Quick
          test_queue_policy_sees_occupancy;
        Alcotest.test_case "time-weighted stats" `Quick
          test_queue_time_weighted_stats;
        Alcotest.test_case "reset stats" `Quick test_queue_reset_stats;
        Alcotest.test_case "observer" `Quick test_queue_observer;
        Alcotest.test_case "validation" `Quick test_queue_validation;
        Alcotest.test_case "traced path allocation-free" `Quick
          test_queue_traced_zero_alloc;
      ] );
    ( "net.port",
      [
        Alcotest.test_case "serialization + propagation" `Quick
          test_port_serialization_timing;
        Alcotest.test_case "back-to-back serialization" `Quick
          test_port_back_to_back;
        Alcotest.test_case "tx_time" `Quick test_port_tx_time;
        Alcotest.test_case "reset counters" `Quick test_port_reset_counters;
        Alcotest.test_case "drops do not transmit" `Quick
          test_port_drops_dont_transmit;
      ] );
    ( "net.host",
      [
        Alcotest.test_case "flow dispatch" `Quick test_host_dispatch;
        Alcotest.test_case "double bind" `Quick test_host_double_bind;
        Alcotest.test_case "nic errors" `Quick test_host_nic_errors;
        qtest prop_host_flow_table;
      ] );
    ( "net.switch",
      [
        Alcotest.test_case "routing" `Quick test_switch_routing;
        Alcotest.test_case "no route" `Quick test_switch_no_route;
        Alcotest.test_case "bad indices" `Quick test_switch_bad_port;
        Alcotest.test_case "ECMP group routing" `Quick
          test_switch_ecmp_routing;
        Alcotest.test_case "no-route trace and metric" `Quick
          test_switch_no_route_trace_and_metric;
      ] );
    ( "net.ecmp",
      [
        Alcotest.test_case "select basics" `Quick test_ecmp_select_basic;
        Alcotest.test_case "validation" `Quick test_ecmp_validation;
        Alcotest.test_case "chi-squared bound rejects a 60/40 split" `Quick
          test_ecmp_chi2_rejects_skew;
        qtest prop_ecmp_flow_stickiness;
        qtest prop_ecmp_balance;
      ] );
    ( "net.topology",
      [
        Alcotest.test_case "dumbbell forward path" `Quick
          test_dumbbell_connectivity;
        Alcotest.test_case "dumbbell reverse path" `Quick
          test_dumbbell_reverse_path;
        Alcotest.test_case "dumbbell latency" `Quick test_dumbbell_rtt;
        Alcotest.test_case "bottleneck marking" `Quick
          test_dumbbell_bottleneck_marks;
        Alcotest.test_case "star connectivity" `Quick test_star_connectivity;
        Alcotest.test_case "star reverse and cross-leaf" `Quick
          test_star_reverse_and_cross;
        Alcotest.test_case "parking lot connectivity" `Quick
          test_parking_lot_connectivity;
        Alcotest.test_case "parking lot per-trunk marking" `Quick
          test_parking_lot_per_trunk_marking;
        Alcotest.test_case "parking lot validation" `Quick
          test_parking_lot_validation;
        Alcotest.test_case "fat tree wiring" `Quick test_fat_tree_wiring;
        Alcotest.test_case "fat tree all-pairs connectivity" `Quick
          test_fat_tree_all_pairs;
      ] );
    ( "net.invariants",
      [
        Alcotest.test_case "queue stats match exhaustive trace" `Quick
          test_queue_stats_match_trace;
        Alcotest.test_case "bottleneck packet conservation" `Quick
          test_bottleneck_conservation;
      ] );
    ( "net.buffer_mgr",
      [
        Alcotest.test_case "solo boundary semantics" `Quick
          test_buffer_solo_boundary;
        Alcotest.test_case "DT limit moves with pool fill" `Quick
          test_buffer_dt_limit_moves;
        Alcotest.test_case "alpha > 1 never overfills" `Quick
          test_buffer_dt_alpha_above_one;
        Alcotest.test_case "high-water poll announces once" `Quick
          test_buffer_dt_high_water_poll;
        qtest prop_buffer_pool_conservation;
        qtest prop_buffer_dt_matches_float_model;
      ] );
  ]
