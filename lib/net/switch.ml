module Trace_ev = Obs.Trace

type t = {
  sim : Engine.Sim.t;
  st : Packet.store;
  id : int;
  name : string;
  mutable ports : Port.t array;
  mutable nports : int;
  (* Dense destination -> egress table, indexed by host id. Values
     [>= 0] are single egress-port indices; [-1] marks no route; values
     [<= -2] encode an ECMP group index as [-2 - gidx], so the common
     single-port case keeps its one-load one-compare fast path and
     multi-path routing costs nothing to topologies that never install a
     group. Host ids are small and dense in every topology the builders
     produce, so this replaces a per-forwarded-packet [Hashtbl.find]
     (hashing plus bucket chase) with one array load. *)
  mutable routes : int array;
  mutable groups : Ecmp.group array;
  mutable no_route : int;
  pool : Buffer_mgr.pool option;
  tracer : Trace_ev.t;
}

let create sim ~id ?(buffer = Buffer_mgr.Static) ?(tracer = Trace_ev.null)
    ?metrics () =
  let pool =
    match buffer with
    | Buffer_mgr.Static -> None
    | Buffer_mgr.Dynamic_threshold { pool_bytes; alpha } ->
        Some (Buffer_mgr.create_pool ~pool_bytes ~alpha)
  in
  let t =
    {
      sim;
      st = Packet.store_of sim;
      id;
      name = Printf.sprintf "sw%d" id;
      ports = [||];
      nports = 0;
      routes = Array.make 16 (-1);
      groups = [||];
      no_route = 0;
      pool;
      tracer;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.probe m
        (Printf.sprintf "switch.sw%d.no_route_drops" id)
        (fun () -> float_of_int t.no_route));
  t

let id t = t.id

let port_buffer t ~capacity_bytes =
  match t.pool with
  | None -> Buffer_mgr.solo ~capacity_bytes
  | Some pool -> Buffer_mgr.attach pool

let add_port t port =
  if t.nports = Array.length t.ports then begin
    let cap = Stdlib.max 4 (2 * Array.length t.ports) in
    let ports = Array.make cap port in
    Array.blit t.ports 0 ports 0 t.nports;
    t.ports <- ports
  end;
  t.ports.(t.nports) <- port;
  t.nports <- t.nports + 1;
  t.nports - 1

let port t i =
  if i < 0 || i >= t.nports then invalid_arg "Switch.port: bad index";
  t.ports.(i)

let port_count t = t.nports

let ensure_route_capacity t dst =
  let cap = Array.length t.routes in
  if dst >= cap then begin
    let ncap =
      let rec fit c = if dst < c then c else fit (2 * c) in
      fit (2 * cap)
    in
    let routes = Array.make ncap (-1) in
    Array.blit t.routes 0 routes 0 cap;
    t.routes <- routes
  end

let set_route t ~dst ~port =
  if port < 0 || port >= t.nports then
    invalid_arg "Switch.set_route: bad port index";
  if dst < 0 then invalid_arg "Switch.set_route: negative destination";
  ensure_route_capacity t dst;
  t.routes.(dst) <- port

let add_group t ~salt ~ports =
  Array.iter
    (fun p ->
      if p < 0 || p >= t.nports then
        invalid_arg "Switch.add_group: bad port index")
    ports;
  let g = Ecmp.make_group ~salt ~ports in
  t.groups <- Array.append t.groups [| g |];
  Array.length t.groups - 1


let set_group_route t ~dst ~group =
  if group < 0 || group >= Array.length t.groups then
    invalid_arg "Switch.set_group_route: bad group index";
  if dst < 0 then invalid_arg "Switch.set_group_route: negative destination";
  ensure_route_capacity t dst;
  t.routes.(dst) <- -2 - group

let receive t pkt =
  let dst = Packet.dst t.st pkt in
  let i = if dst < Array.length t.routes then t.routes.(dst) else -1 in
  if i >= 0 then Port.send t.ports.(i) pkt
  else if i < -1 then
    (* ECMP: resolve the group per flow; same 5-tuple, same port. *)
    let p =
      Ecmp.select t.groups.(-2 - i) ~src:(Packet.src t.st pkt) ~dst
        ~flow:(Packet.flow t.st pkt)
    in
    Port.send t.ports.(p) pkt
  else begin
    if Trace_ev.enabled t.tracer Trace_ev.C_no_route_drop then
      Trace_ev.emit t.tracer
        {
          Trace_ev.time = Engine.Sim.now t.sim;
          component = t.name;
          event =
            Trace_ev.No_route_drop { flow = Packet.flow t.st pkt; dst };
        };
    (* The switch consumed the packet by dropping it. *)
    Packet.free t.st pkt;
    t.no_route <- t.no_route + 1
  end

let no_route_drops t = t.no_route
