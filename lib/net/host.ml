type t = {
  st : Packet.store;
  id : int;
  mutable nic : Port.t option;
  (* Flow-id -> handler table, open addressing with linear probing:
     [keys.(i)] is the flow bound in slot [i] (-1 when free) and
     [handlers.(i)] its handler. A host binds a few flows out of the
     run's whole id range, so the table is sized by what it holds (at
     most half full), not by the largest flow id: a dense array per host
     took O(hosts x flows) words, 2048 slots on each of a k=8 fat tree's
     128 hosts. A flow's home slot is its id masked, so the dense ids of
     a dumbbell's receiver still sit one per slot and demultiplexing is
     one probe. Free slots hold [unbound] (compared by [==]) rather than
     an option, which would box every bound handler lookup. *)
  mutable keys : int array;
  mutable handlers : (Packet.t -> unit) array;
  mutable bound : int;
  unbound : Packet.t -> unit;
}

let min_slots = 16

let create sim ~id =
  let st = Packet.store_of sim in
  let rec t =
    {
      st;
      id;
      nic = None;
      keys = Array.make min_slots (-1);
      handlers = [||];
      bound = 0;
      unbound;
    }
  and unbound pkt =
    (* No transport claimed this flow: the host consumes the packet. *)
    Packet.free t.st pkt
  in
  t.handlers <- Array.make min_slots unbound;
  t

let id t = t.id

let attach_nic t port =
  match t.nic with
  | Some _ -> invalid_arg "Host.attach_nic: NIC already attached"
  | None -> t.nic <- Some port

let[@inline never] no_nic () = invalid_arg "Host.nic: no NIC attached"

let[@inline] nic t = match t.nic with Some p -> p | None -> no_nic ()

(* Every transport sends through [send], and every [Topology] link into
   a host delivers through [receive]: each keeps its inlined chain in
   one out-of-line copy instead of growing every caller. *)
let[@inline never] send t pkt =
  (Port.send [@inlined]) ((nic [@inlined]) t) pkt

(* Slot holding [flow], or -1: probe from its home slot until the flow
   or a free slot. The table is never full, so the walk ends. *)
let[@inline] find t flow =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (flow land mask) in
  while keys.(!i) <> flow && keys.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = flow then !i else -1

let[@inline never] receive t pkt =
  let flow = Packet.flow t.st pkt in
  let i = if flow >= 0 then (find [@inlined]) t flow else -1 in
  if i >= 0 then t.handlers.(i) pkt else t.unbound pkt

let insert keys handlers ~flow handler =
  let mask = Array.length keys - 1 in
  let i = ref (flow land mask) in
  while keys.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- flow;
  handlers.(!i) <- handler

let bind_flow t ~flow handler =
  if flow < 0 then invalid_arg "Host.bind_flow: negative flow id";
  if find t flow >= 0 then invalid_arg "Host.bind_flow: flow already bound";
  if 2 * (t.bound + 1) > Array.length t.keys then begin
    let cap = 2 * Array.length t.keys in
    let keys = Array.make cap (-1) and handlers = Array.make cap t.unbound in
    Array.iteri
      (fun i k -> if k >= 0 then insert keys handlers ~flow:k t.handlers.(i))
      t.keys;
    t.keys <- keys;
    t.handlers <- handlers
  end;
  insert t.keys t.handlers ~flow handler;
  t.bound <- t.bound + 1

(* Backward-shift deletion: after emptying the flow's slot, walk the rest
   of its probe run and move back every entry whose home slot does not
   lie between the hole and itself, so no run is broken by the hole. *)
let unbind_flow t ~flow =
  let i = if flow >= 0 then find t flow else -1 in
  if i >= 0 then begin
    let keys = t.keys and handlers = t.handlers in
    let mask = Array.length keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) >= 0 do
      let home = keys.(!j) land mask in
      if (!j - home) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- keys.(!j);
        handlers.(!hole) <- handlers.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- -1;
    handlers.(!hole) <- t.unbound;
    t.bound <- t.bound - 1
  end
