(* An ACK's SACK blocks, when it carries any: the only segment field
   that needs the boxed payload slot. *)
type Net.Packet.payload += Sack of (int * int) list

(* Header word: segment number above a two-bit tag. Word 0 (tag 0) is
   what [Net.Packet.make] stores, so non-segment packets read as such. *)
let tag_data = 1
let tag_ack = 2
let tag_ack_ece = 3

let[@inline] data st ~src ~dst ~flow ~size ~ecn ~seq =
  (Net.Packet.make_with_word [@inlined]) st ~src ~dst ~flow ~size ~ecn
    ~word:((seq lsl 2) lor tag_data)
    Net.Packet.No_payload

let[@inline] ack st ~src ~dst ~flow ~size ~ack ~ece ~sack =
  (Net.Packet.make_with_word [@inlined]) st ~src ~dst ~flow ~size ~ecn:Net.Packet.Not_ect
    ~word:((ack lsl 2) lor (if ece then tag_ack_ece else tag_ack))
    (match sack with [] -> Net.Packet.No_payload | blocks -> Sack blocks)

let[@inline] data_seq st p =
  let w = Net.Packet.word st p in
  if w land 3 = tag_data then w lsr 2 else -1

let[@inline] ack_no st p =
  let w = Net.Packet.word st p in
  if w land 3 >= tag_ack then w lsr 2 else -1

let[@inline] ece st p = Net.Packet.word st p land 3 = tag_ack_ece

let[@inline] sack st p =
  match Net.Packet.payload st p with Sack blocks -> blocks | _ -> []

type view =
  | Data of { seq : int }
  | Ack of { ack : int; ece : bool; sack : (int * int) list }
  | Other

let view st p =
  let seq = data_seq st p and ack = ack_no st p in
  if seq >= 0 then Data { seq }
  else if ack >= 0 then Ack { ack; ece = ece st p; sack = sack st p }
  else Other
