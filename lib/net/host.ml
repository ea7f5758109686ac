type t = {
  st : Packet.store;
  id : int;
  mutable nic : Port.t option;
  (* Dense flow-id -> handler table; flow ids are small and dense in
     every topology the builders produce, so demultiplexing a delivered
     packet is one array load instead of a [Hashtbl.find]. Unbound slots
     hold [unbound] (compared by [==]) rather than an option, which
     would box every bound handler lookup. *)
  mutable handlers : (Packet.t -> unit) array;
  unbound : Packet.t -> unit;
}

let create sim ~id =
  let st = Packet.store_of sim in
  let rec t =
    {
      st;
      id;
      nic = None;
      handlers = [||];
      unbound;
    }
  and unbound pkt =
    (* No transport claimed this flow: the host consumes the packet. *)
    Packet.free t.st pkt
  in
  t.handlers <- Array.make 16 unbound;
  t

let id t = t.id

let attach_nic t port =
  match t.nic with
  | Some _ -> invalid_arg "Host.attach_nic: NIC already attached"
  | None -> t.nic <- Some port

let nic t =
  match t.nic with
  | Some p -> p
  | None -> invalid_arg "Host.nic: no NIC attached"

let send t pkt = Port.send (nic t) pkt

let receive t pkt =
  let flow = Packet.flow t.st pkt in
  if flow >= 0 && flow < Array.length t.handlers then t.handlers.(flow) pkt
  else t.unbound pkt

let bind_flow t ~flow handler =
  if flow < 0 then invalid_arg "Host.bind_flow: negative flow id";
  let cap = Array.length t.handlers in
  if flow >= cap then begin
    let ncap =
      let rec fit c = if flow < c then c else fit (2 * c) in
      fit (2 * cap)
    in
    let handlers = Array.make ncap t.unbound in
    Array.blit t.handlers 0 handlers 0 cap;
    t.handlers <- handlers
  end;
  if t.handlers.(flow) != t.unbound then
    invalid_arg "Host.bind_flow: flow already bound";
  t.handlers.(flow) <- handler

let unbind_flow t ~flow =
  if flow >= 0 && flow < Array.length t.handlers then
    t.handlers.(flow) <- t.unbound

