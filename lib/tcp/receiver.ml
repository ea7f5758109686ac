module Sim = Engine.Sim

type echo_policy = Per_packet | Dctcp_delayed of int

type t = {
  sim : Sim.t;
  st : Net.Packet.store;
  host : Net.Host.t;
  flow : int;
  peer : int;
  echo : echo_policy;
  sack : bool;
  ack_bytes : int;
  mutable rcv_nxt : int;
  (* Buffered out-of-order segments, created at the first one: an
     in-order flow never needs the table. *)
  mutable ooo : (int, unit) Hashtbl.t option;
  (* DCTCP delayed-ACK echo state *)
  mutable ce_state : bool;
  mutable pending : int;
}

(* Up to three maximal runs of buffered out-of-order segments, ascending. *)
let sack_blocks t =
  match t.ooo with
  | Some ooo when t.sack && Hashtbl.length ooo > 0 ->
      let seqs =
        Hashtbl.fold (fun seq () acc -> seq :: acc) ooo []
        |> List.sort Int.compare
      in
      let rec runs acc cur = function
        | [] -> List.rev (Option.to_list cur @ acc)
        | seq :: rest -> (
            match cur with
            | Some (first, next) when seq = next -> runs acc (Some (first, seq + 1)) rest
            | Some block -> runs (block :: acc) (Some (seq, seq + 1)) rest
            | None -> runs acc (Some (seq, seq + 1)) rest)
      in
      let blocks = runs [] None seqs in
      List.filteri (fun i _ -> i < 3) blocks
  | Some _ | None -> []

let send_ack t ~ece =
  let pkt =
    (Segment.ack [@inlined]) t.st ~src:(Net.Host.id t.host) ~dst:t.peer ~flow:t.flow
      ~size:t.ack_bytes ~ack:t.rcv_nxt ~ece ~sack:(sack_blocks t)
  in
  Net.Host.send t.host pkt

let flush_pending t =
  if t.pending > 0 then begin
    send_ack t ~ece:t.ce_state;
    t.pending <- 0
  end

let buffered t seq =
  match t.ooo with Some ooo -> Hashtbl.mem ooo seq | None -> false

let ooo_table t =
  match t.ooo with
  | Some ooo -> ooo
  | None ->
      let ooo = Hashtbl.create 1 (* smallest; grows under reordering *) in
      t.ooo <- Some ooo;
      ooo

let handle_data t ~seq ~ce =
  let in_order = seq = t.rcv_nxt in
  let stale = seq < t.rcv_nxt || (seq > t.rcv_nxt && buffered t seq) in
  if in_order then begin
    t.rcv_nxt <- t.rcv_nxt + 1;
    (* Almost every in-order segment finds nothing buffered: test the
       count before hashing the next sequence number. *)
    match t.ooo with
    | Some ooo when Hashtbl.length ooo > 0 ->
        while Hashtbl.mem ooo t.rcv_nxt do
          Hashtbl.remove ooo t.rcv_nxt;
          t.rcv_nxt <- t.rcv_nxt + 1
        done
    | Some _ | None -> ()
  end
  else if seq > t.rcv_nxt then Hashtbl.replace (ooo_table t) seq ();
  if stale then
    (* Already-delivered data (a go-back-N resend): acknowledging it again
       would read as a duplicate ACK at the sender and trigger spurious
       fast retransmits; without SACK the sender cannot tell the
       difference, so stay silent and let the RTO cover the (simulated)
       impossibility of a lost ACK. *)
    ()
  else
  match t.echo with
  | Per_packet -> send_ack t ~ece:ce
  | Dctcp_delayed m ->
      if not in_order then begin
        (* Duplicate ACK needed immediately for fast retransmit; flush any
           coalesced state first so ACK ordering stays monotone. *)
        flush_pending t;
        send_ack t ~ece:ce
      end
      else if ce <> t.ce_state then begin
        flush_pending t;
        t.ce_state <- ce;
        t.pending <- 1;
        if t.pending >= m then flush_pending t
      end
      else begin
        t.pending <- t.pending + 1;
        if t.pending >= m then flush_pending t
      end

let create sim ~host ~flow ~peer ?(echo = Per_packet) ?(sack = false)
    ?(ack_bytes = 40) () =
  (match echo with
  | Dctcp_delayed m when m <= 0 ->
      invalid_arg "Receiver.create: delayed-ACK factor must be positive"
  | Dctcp_delayed _ | Per_packet -> ());
  let t =
    {
      sim;
      st = Net.Packet.store_of sim;
      host;
      flow;
      peer;
      echo;
      sack;
      ack_bytes;
      rcv_nxt = 0;
      ooo = None;
      ce_state = false;
      pending = 0;
    }
  in
  Net.Host.bind_flow host ~flow (fun pkt ->
      let seq = (Segment.data_seq [@inlined]) t.st pkt in
      let ce = Net.Packet.is_ce t.st pkt in
      (* Terminal consumer: extract fields, recycle, then process. *)
      (Net.Packet.free [@inlined]) t.st pkt;
      if seq >= 0 then handle_data t ~seq ~ce);
  t

let segments_delivered t = t.rcv_nxt
let close t = Net.Host.unbind_flow t.host ~flow:t.flow
