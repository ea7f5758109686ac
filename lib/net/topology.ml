module Sim = Engine.Sim
module Time = Engine.Time

(* Buffer for non-bottleneck queues: 512 KB, a realistic NIC/leaf queue,
   large enough never to be the bottleneck in the paper's scenarios and
   small enough to avoid unbounded self-inflicted bufferbloat. *)
let default_access_buffer = 512 * 1024

(* A queue's name, e.g. "sw3->host17": one per port, so it is built
   without [Printf], whose format interpretation allocates several times
   the string itself. *)
let link_name p a q b = p ^ Int.to_string a ^ q ^ Int.to_string b

(* The full-duplex pair of ports (host NIC and a switch port); installs
   the route to the host on the switch and returns the switch port
   index. The tracer and metrics instrument the switch-side queue only. *)

let connect_host_to_switch sim host switch ~rate_bps ~delay
    ?(switch_buffer = default_access_buffer)
    ?(switch_marking = Marking.none ()) ?switch_tracer ?switch_metrics () =
  (* Host NICs always own a private buffer; only switch-side queues can
     sit on a shared pool (the switch decides via [port_buffer]). *)
  let host_q =
    Queue_disc.create sim
      ~buffer:(Buffer_mgr.solo ~capacity_bytes:default_access_buffer)
      ~name:("host" ^ Int.to_string (Host.id host) ^ "-nic")
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
      ~name:(link_name "sw" (Switch.id switch) "->host" (Host.id host))
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
   port index on b toward a). Routes are installed by the caller. Both
   directions get [buffer] bytes and their own [marking ()] policy. *)
let connect_switches sim a b ~rate_bps ~delay ~buffer ?(marking = Marking.none)
    () =
  let q_ab =
    Queue_disc.create sim
      ~buffer:(Switch.port_buffer a ~capacity_bytes:buffer)
      ~marking:(marking ())
      ~name:(link_name "sw" (Switch.id a) "->sw" (Switch.id b))
      ()
  in
  let port_ab =
    Port.create sim ~rate_bps ~delay ~queue:q_ab ~deliver:(fun pkt ->
        Switch.receive b pkt)
  in
  let ia = Switch.add_port a port_ab in
  let q_ba =
    Queue_disc.create sim
      ~buffer:(Switch.port_buffer b ~capacity_bytes:buffer)
      ~marking:(marking ())
      ~name:(link_name "sw" (Switch.id b) "->sw" (Switch.id a))
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
  let leg = Time.span_of_int_ns (Time.span_to_int_ns rtt / 4) in
  let switch = Switch.create sim ~id:0 ~buffer () in
  Switch.reserve_routes switch ~hosts:(n_senders + 1);
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

type star = {
  aggregator : Host.t;
  workers : Host.t array;
  root : Switch.t;
  leaves : Switch.t array;
  star_bottleneck : Port.t;
}

let star_testbed sim ~rate_bps ~bottleneck_buffer ?(leaf_buffer = 512 * 1024)
    ?(buffer = Buffer_mgr.Static) ~marking () =
  let n_leaves = 3 and workers_per_leaf = 3 in
  (* 25 us per link traversal, host links and trunks alike. *)
  let delay = Time.span_of_us 25. in
  (* The buffer config applies to the root (the shared-memory ASIC under
     study — it owns the bottleneck port); leaves stay Static. *)
  let n_workers = n_leaves * workers_per_leaf in
  let mk id buffer =
    let sw = Switch.create sim ~id ~buffer () in
    Switch.reserve_routes sw ~hosts:(n_workers + 1);
    sw
  in
  let root = mk 0 buffer in
  let leaves = Array.init n_leaves (fun i -> mk (i + 1) Buffer_mgr.Static) in
  let workers =
    Array.init n_workers (fun w ->
        let leaf = leaves.(w / workers_per_leaf) in
        let host = Host.create sim ~id:w in
        ignore
          (connect_host_to_switch sim host leaf ~rate_bps ~delay
             ~switch_buffer:leaf_buffer ());
        host)
  in
  let aggregator = Host.create sim ~id:n_workers in
  let agg_port_idx =
    connect_host_to_switch sim aggregator root ~rate_bps ~delay
      ~switch_buffer:bottleneck_buffer ~switch_marking:marking ()
  in
  (* Trunks and routing: root knows each worker lives behind its leaf;
     each leaf defaults everything else up to the root. *)
  Array.iteri
    (fun li leaf ->
      let root_port, leaf_uplink =
        connect_switches sim root leaf ~rate_bps ~delay ~buffer:leaf_buffer ()
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
    ?(queue_bytes = default_access_buffer) ?(buffer = Buffer_mgr.Static)
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
  let mk id =
    let sw = Switch.create sim ~id ~buffer ?tracer ?metrics () in
    Switch.reserve_routes sw ~hosts:n_hosts;
    sw
  in
  let edges = Array.init n_edges mk in
  let aggs = Array.init n_aggs (fun a -> mk (n_edges + a)) in
  let cores = Array.init n_cores (fun c -> mk (n_edges + n_aggs + c)) in
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
            ~buffer:queue_bytes ~marking ()
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
            ~buffer:queue_bytes ~marking ()
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
