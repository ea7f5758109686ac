type t = {
  st : Net.Packet.store;
  host : Net.Host.t;
  flow : int;
  peer : int;
  sack : bool;
  mutable rcv_nxt : int;
  (* Buffered out-of-order segments, created at the first one: an
     in-order flow never needs the table. *)
  mutable ooo : (int, unit) Hashtbl.t option;
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

let ack_bytes = 40

let send_ack t ~ece =
  let pkt =
    (Segment.ack [@inlined]) t.st ~src:(Net.Host.id t.host) ~dst:t.peer ~flow:t.flow
      ~size:ack_bytes ~ack:t.rcv_nxt ~ece ~sack:(sack_blocks t)
  in
  Net.Host.send t.host pkt

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
  (* Already-delivered data (a go-back-N resend): acknowledging it again
     would read as a duplicate ACK at the sender and trigger spurious
     fast retransmits; without SACK the sender cannot tell the
     difference, so stay silent and let the RTO cover the (simulated)
     impossibility of a lost ACK. *)
  if not stale then send_ack t ~ece:ce

let create sim ~host ~flow ~peer ?(sack = false) () =
  let t =
    {
      st = Net.Packet.store_of sim;
      host;
      flow;
      peer;
      sack;
      rcv_nxt = 0;
      ooo = None;
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
