module Sim = Engine.Sim
module Time = Engine.Time

(* Buffer for non-bottleneck queues: 512 KB, a realistic NIC/leaf queue,
   large enough never to be the bottleneck in the paper's scenarios and
   small enough to avoid unbounded self-inflicted bufferbloat. *)
let default_access_buffer = 512 * 1024

(* The full-duplex pair of ports (host NIC and a switch port); installs
   the route to the host on the switch and returns the switch port
   index. The tracer and metrics instrument the switch-side queue only. *)

let connect_host_to_switch sim host switch ~rate_bps ~delay
    ?(host_buffer = default_access_buffer)
    ?(switch_buffer = default_access_buffer)
    ?(switch_marking = Marking.none ()) ?switch_tracer ?switch_metrics () =
  (* Host NICs always own a private buffer; only switch-side queues can
     sit on a shared pool (the switch decides via [port_buffer]). *)
  let host_q =
    Queue_disc.create sim ~buffer:(Buffer_mgr.solo ~capacity_bytes:host_buffer)
      ~name:(Printf.sprintf "host%d-nic" (Host.id host))
      ()
  in
  let nic =
    Port.create sim ~rate_bps ~delay ~queue:host_q ~deliver:(fun pkt ->
        Switch.receive switch pkt)
  in
  Host.attach_nic host nic;
  let sw_q =
    Queue_disc.create sim
      ~buffer:(Switch.port_buffer switch ~capacity_bytes:switch_buffer)
      ~marking:switch_marking ?tracer:switch_tracer ?metrics:switch_metrics
      ~name:(Printf.sprintf "sw%d->host%d" (Switch.id switch) (Host.id host))
      ()
  in
  let sw_port =
    Port.create sim ~rate_bps ~delay ~queue:sw_q ~deliver:(fun pkt ->
        Host.receive host pkt)
  in
  let idx = Switch.add_port switch sw_port in
  Switch.set_route switch ~dst:(Host.id host) ~port:idx;
  idx

(* Full-duplex switch-to-switch cable; returns (port index on a toward b,
   port index on b toward a). Routes are installed by the caller. The
   [_ab] tracer and metrics instrument the a-toward-b queue, [_ba] the
   reverse one. *)
let connect_switches sim a b ~rate_bps ~delay
    ?(buffer_ab = default_access_buffer) ?(buffer_ba = default_access_buffer)
    ?(marking_ab = Marking.none ()) ?(marking_ba = Marking.none ())
    ?tracer_ab ?tracer_ba ?metrics_ab ?metrics_ba () =
  let q_ab =
    Queue_disc.create sim
      ~buffer:(Switch.port_buffer a ~capacity_bytes:buffer_ab)
      ~marking:marking_ab ?tracer:tracer_ab ?metrics:metrics_ab
      ~name:(Printf.sprintf "sw%d->sw%d" (Switch.id a) (Switch.id b))
      ()
  in
  let port_ab =
    Port.create sim ~rate_bps ~delay ~queue:q_ab ~deliver:(fun pkt ->
        Switch.receive b pkt)
  in
  let ia = Switch.add_port a port_ab in
  let q_ba =
    Queue_disc.create sim
      ~buffer:(Switch.port_buffer b ~capacity_bytes:buffer_ba)
      ~marking:marking_ba ?tracer:tracer_ba ?metrics:metrics_ba
      ~name:(Printf.sprintf "sw%d->sw%d" (Switch.id b) (Switch.id a))
      ()
  in
  let port_ba =
    Port.create sim ~rate_bps ~delay ~queue:q_ba ~deliver:(fun pkt ->
        Switch.receive a pkt)
  in
  let ib = Switch.add_port b port_ba in
  (ia, ib)

type dumbbell = {
  senders : Host.t array;
  receiver : Host.t;
  switch : Switch.t;
  bottleneck : Port.t;
}

let dumbbell sim ~n_senders ~bottleneck_rate_bps ?access_rate_bps ~rtt
    ~buffer_bytes ?(buffer = Buffer_mgr.Static) ~marking ?tracer ?metrics () =
  if n_senders <= 0 then invalid_arg "Topology.dumbbell: need senders";
  let access_rate_bps =
    match access_rate_bps with Some r -> r | None -> bottleneck_rate_bps
  in
  (* Four propagation traversals per round trip: sender->switch,
     switch->receiver and back. *)
  let leg = Int64.div rtt 4L in
  let switch = Switch.create sim ~id:0 ~buffer () in
  let senders =
    Array.init n_senders (fun i ->
        let host = Host.create sim ~id:i in
        ignore
          (connect_host_to_switch sim host switch ~rate_bps:access_rate_bps
             ~delay:leg ());
        host)
  in
  let receiver = Host.create sim ~id:n_senders in
  let idx =
    connect_host_to_switch sim receiver switch ~rate_bps:bottleneck_rate_bps
      ~delay:leg ~switch_buffer:buffer_bytes ~switch_marking:marking
      ?switch_tracer:tracer ?switch_metrics:metrics ()
  in
  { senders; receiver; switch; bottleneck = Switch.port switch idx }

type parking_lot = {
  chain : Switch.t array;
  long_src : Host.t;
  long_dst : Host.t;
  cross_srcs : Host.t array;
  cross_dsts : Host.t array;
  trunks : Port.t array;
}

let parking_lot sim ~hops ~rate_bps ?access_rate_bps ?link_delay
    ~buffer_bytes ?(buffer = Buffer_mgr.Static) ~marking () =
  if hops <= 0 then invalid_arg "Topology.parking_lot: need hops";
  let access_rate_bps =
    match access_rate_bps with Some r -> r | None -> 4. *. rate_bps
  in
  let delay =
    match link_delay with Some d -> d | None -> Time.span_of_us 12.5
  in
  (* One pool per switch: each chain element models its own ASIC. *)
  let chain =
    Array.init (hops + 1) (fun i -> Switch.create sim ~id:i ~buffer ())
  in
  (* Hosts: ids 0 = long_src, 1 = long_dst, then cross pairs. The location
     of every host (which switch it hangs off) drives the chain routing. *)
  let long_src = Host.create sim ~id:0 in
  let long_dst = Host.create sim ~id:1 in
  let cross_srcs = Array.init hops (fun i -> Host.create sim ~id:(2 + (2 * i))) in
  let cross_dsts =
    Array.init hops (fun i -> Host.create sim ~id:(3 + (2 * i)))
  in
  let location = Hashtbl.create 16 in
  Hashtbl.replace location (Host.id long_src) 0;
  Hashtbl.replace location (Host.id long_dst) hops;
  Array.iteri
    (fun i h -> Hashtbl.replace location (Host.id h) i)
    cross_srcs;
  Array.iteri
    (fun i h -> Hashtbl.replace location (Host.id h) (i + 1))
    cross_dsts;
  let attach host sw =
    ignore
      (connect_host_to_switch sim host sw ~rate_bps:access_rate_bps ~delay ())
  in
  attach long_src chain.(0);
  attach long_dst chain.(hops);
  Array.iteri (fun i h -> attach h chain.(i)) cross_srcs;
  Array.iteri (fun i h -> attach h chain.(i + 1)) cross_dsts;
  (* Trunks with per-hop marking forward, plain drop-tail backward. *)
  let right_port = Array.make (hops + 1) (-1) in
  let left_port = Array.make (hops + 1) (-1) in
  for i = 0 to hops - 1 do
    let fwd, back =
      connect_switches sim chain.(i) chain.(i + 1) ~rate_bps ~delay
        ~buffer_ab:buffer_bytes ~marking_ab:(marking ()) ()
    in
    right_port.(i) <- fwd;
    left_port.(i + 1) <- back
  done;
  let trunks =
    Array.init hops (fun i -> Switch.port chain.(i) right_port.(i))
  in
  (* Chain routing: hosts at other switches go left or right. *)
  Hashtbl.iter
    (fun host_id loc ->
      Array.iteri
        (fun sw_idx sw ->
          if loc > sw_idx then
            Switch.set_route sw ~dst:host_id ~port:right_port.(sw_idx)
          else if loc < sw_idx then
            Switch.set_route sw ~dst:host_id ~port:left_port.(sw_idx))
        chain)
    location;
  { chain; long_src; long_dst; cross_srcs; cross_dsts; trunks }

type star = {
  aggregator : Host.t;
  workers : Host.t array;
  root : Switch.t;
  leaves : Switch.t array;
  star_bottleneck : Port.t;
}

let star_testbed sim ?(n_leaves = 3) ?(workers_per_leaf = 3) ~rate_bps
    ?host_delay ?trunk_delay ~bottleneck_buffer
    ?(leaf_buffer = 512 * 1024) ?(buffer = Buffer_mgr.Static) ~marking () =
  if n_leaves <= 0 || workers_per_leaf <= 0 then
    invalid_arg "Topology.star_testbed: need leaves and workers";
  let host_delay =
    match host_delay with Some d -> d | None -> Time.span_of_us 25.
  in
  let trunk_delay =
    match trunk_delay with Some d -> d | None -> Time.span_of_us 25.
  in
  (* The buffer config applies to the root (the shared-memory ASIC under
     study — it owns the bottleneck port); leaves stay Static. *)
  let root = Switch.create sim ~id:0 ~buffer () in
  let leaves =
    Array.init n_leaves (fun i -> Switch.create sim ~id:(i + 1) ())
  in
  let n_workers = n_leaves * workers_per_leaf in
  let workers =
    Array.init n_workers (fun w ->
        let leaf = leaves.(w / workers_per_leaf) in
        let host = Host.create sim ~id:w in
        ignore
          (connect_host_to_switch sim host leaf ~rate_bps ~delay:host_delay
             ~switch_buffer:leaf_buffer ());
        host)
  in
  let aggregator = Host.create sim ~id:n_workers in
  let agg_port_idx =
    connect_host_to_switch sim aggregator root ~rate_bps ~delay:host_delay
      ~switch_buffer:bottleneck_buffer ~switch_marking:marking ()
  in
  (* Trunks and routing: root knows each worker lives behind its leaf;
     each leaf defaults everything else up to the root. *)
  Array.iteri
    (fun li leaf ->
      let root_port, leaf_uplink =
        connect_switches sim root leaf ~rate_bps ~delay:trunk_delay
          ~buffer_ab:leaf_buffer ~buffer_ba:leaf_buffer ()
      in
      for w = li * workers_per_leaf to ((li + 1) * workers_per_leaf) - 1 do
        Switch.set_route root ~dst:w ~port:root_port
      done;
      Switch.set_route leaf ~dst:(Host.id aggregator) ~port:leaf_uplink;
      (* Workers on other leaves are reachable via the root too. *)
      for w = 0 to n_workers - 1 do
        if w / workers_per_leaf <> li then
          Switch.set_route leaf ~dst:w ~port:leaf_uplink
      done)
    leaves;
  {
    aggregator;
    workers;
    root;
    leaves;
    star_bottleneck = Switch.port root agg_port_idx;
  }

type fat_tree = {
  k : int;
  hosts : Host.t array;
  edges : Switch.t array;
  aggs : Switch.t array;
  cores : Switch.t array;
}

(* Standard k-ary fat tree (Al-Fares et al.): k pods, each with k/2 edge
   and k/2 aggregation switches; k/2 hosts per edge switch; (k/2)^2 core
   switches. Aggregation switch [a] (position within its pod) uplinks to
   cores [a*(k/2) .. a*(k/2)+k/2-1], so every core sees exactly one
   aggregation switch per pod. Downward routing is deterministic (the
   dst's pod, then its rack); upward routing is an ECMP group over the
   switch's uplinks, salted per switch from the sim's Rng stream. *)
let fat_tree sim ~k ?(rate_bps = 1e9) ?link_delay
    ?(queue_bytes = default_access_buffer) ?(edge_buffer = Buffer_mgr.Static)
    ?(agg_buffer = Buffer_mgr.Static) ?(core_buffer = Buffer_mgr.Static)
    ~marking ?tracer ?metrics () =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Topology.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  let n_hosts = k * k * k / 4 in
  let hosts_per_pod = half * half in
  let n_edges = k * half in
  let n_aggs = k * half in
  let n_cores = half * half in
  let delay =
    match link_delay with Some d -> d | None -> Time.span_of_us 5.
  in
  let rng = Sim.rng sim in
  let mk id buffer = Switch.create sim ~id ~buffer ?tracer ?metrics () in
  let edges = Array.init n_edges (fun e -> mk e edge_buffer) in
  let aggs = Array.init n_aggs (fun a -> mk (n_edges + a) agg_buffer) in
  let cores =
    Array.init n_cores (fun c -> mk (n_edges + n_aggs + c) core_buffer)
  in
  (* Hosts, each attached to its rack's edge switch; the primitive
     installs the edge's direct route to the host. *)
  let hosts =
    Array.init n_hosts (fun h ->
        let host = Host.create sim ~id:h in
        ignore
          (connect_host_to_switch sim host edges.(h / half) ~rate_bps ~delay
             ~switch_buffer:queue_bytes ~switch_marking:(marking ()) ());
        host)
  in
  (* Edge <-> aggregation wiring within each pod. *)
  let edge_up = Array.make_matrix n_edges half (-1) in
  let agg_down = Array.make_matrix n_aggs half (-1) in
  for p = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        let eg = (p * half) + e and ag = (p * half) + a in
        let ie, ia =
          connect_switches sim edges.(eg) aggs.(ag) ~rate_bps ~delay
            ~buffer_ab:queue_bytes ~buffer_ba:queue_bytes
            ~marking_ab:(marking ()) ~marking_ba:(marking ()) ()
        in
        edge_up.(eg).(a) <- ie;
        agg_down.(ag).(e) <- ia
      done
    done
  done;
  (* Aggregation <-> core wiring. *)
  let agg_up = Array.make_matrix n_aggs half (-1) in
  let core_down = Array.make_matrix n_cores k (-1) in
  for p = 0 to k - 1 do
    for a = 0 to half - 1 do
      let ag = (p * half) + a in
      for j = 0 to half - 1 do
        let c = (a * half) + j in
        let ia, ic =
          connect_switches sim aggs.(ag) cores.(c) ~rate_bps ~delay
            ~buffer_ab:queue_bytes ~buffer_ba:queue_bytes
            ~marking_ab:(marking ()) ~marking_ba:(marking ()) ()
        in
        agg_up.(ag).(j) <- ia;
        core_down.(c).(p) <- ic
      done
    done
  done;
  (* Routing. Salts are drawn in a fixed order (all edges, then all
     aggs), so the Rng stream — and with it every ECMP decision — is a
     pure function of the sim's seed. *)
  Array.iteri
    (fun eg edge ->
      let gidx =
        Switch.add_group edge ~salt:(Engine.Rng.int64 rng)
          ~ports:edge_up.(eg)
      in
      for h = 0 to n_hosts - 1 do
        if h / half <> eg then Switch.set_group_route edge ~dst:h ~group:gidx
      done)
    edges;
  Array.iteri
    (fun ag agg ->
      let p = ag / half in
      let gidx =
        Switch.add_group agg ~salt:(Engine.Rng.int64 rng) ~ports:agg_up.(ag)
      in
      for h = 0 to n_hosts - 1 do
        if h / hosts_per_pod = p then
          Switch.set_route agg ~dst:h ~port:agg_down.(ag).(h / half mod half)
        else Switch.set_group_route agg ~dst:h ~group:gidx
      done)
    aggs;
  Array.iteri
    (fun c core ->
      for h = 0 to n_hosts - 1 do
        Switch.set_route core ~dst:h ~port:core_down.(c).(h / hosts_per_pod)
      done)
    cores;
  { k; hosts; edges; aggs; cores }
