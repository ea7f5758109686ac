type ecn = Not_ect | Ect | Ce

type payload = ..

type payload += No_payload

(* A packet is an immediate handle: an index into its simulation's
   struct-of-arrays store. The network hot loop (enqueue, dequeue, mark,
   forward) reads size/flow/ECN straight out of flat int arrays instead
   of chasing a boxed record per packet, and passing packets between
   components costs no write barrier (see [Engine.Int_ring]). *)
type t = int

let none = -1

(* ECN codepoints as ints so the marking loop is integer compares. *)
let ecn_not_ect = 0
let ecn_ect = 1
let ecn_ce = 2

type store = {
  sim : Engine.Sim.t;
  (* Parallel arrays indexed by packet handle. All grown together. *)
  mutable size : int array;  (* bytes on the wire *)
  mutable flow : int array;  (* flow id, for host demux *)
  mutable src : int array;  (* source host id *)
  mutable dst : int array;  (* destination host id *)
  mutable ecn : int array;  (* codepoint, [ecn_*] above *)
  mutable enq_ns : int array;  (* ns instant of last queue admission *)
  mutable word : int array;  (* transport header word, 0 = none *)
  mutable uid : int array;  (* per-sim debug id; -1 marks a free slot *)
  mutable payload : payload array;  (* opaque transport payload *)
  (* Free-list stack of recycled handles. *)
  mutable free_stack : int array;
  mutable free_top : int;
  mutable next_slot : int;  (* next never-used handle *)
  mutable live : int;
}

type Engine.Sim.ext += Store of store

let create_store sim =
  let cap = 256 in
  {
    sim;
    size = Array.make cap 0;
    flow = Array.make cap 0;
    src = Array.make cap 0;
    dst = Array.make cap 0;
    ecn = Array.make cap 0;
    enq_ns = Array.make cap 0;
    word = Array.make cap 0;
    uid = Array.make cap (-1);
    payload = Array.make cap No_payload;
    free_stack = Array.make cap 0;
    free_top = 0;
    next_slot = 0;
    live = 0;
  }

(* One store per simulation, owned by the simulation itself through its
   extension slots: every component of a topology (created with the same
   [sim]) resolves to the same store, deterministically, with no
   module-level global for a parallel sweep to race on. Components call
   this once at creation and keep the result. *)
let store_of sim =
  match
    Engine.Sim.find_ext sim (function Store s -> Some s | _ -> None)
  with
  | Some s -> s
  | None ->
      let s = create_store sim in
      Engine.Sim.add_ext sim (Store s);
      s

(* [a] copied into an array twice its length, the new half [fill]. *)
let extend a fill =
  let cap = Array.length a in
  let b = Array.make (2 * cap) fill in
  Array.blit a 0 b 0 cap;
  b

let grow st =
  st.size <- extend st.size 0;
  st.flow <- extend st.flow 0;
  st.src <- extend st.src 0;
  st.dst <- extend st.dst 0;
  st.ecn <- extend st.ecn 0;
  st.enq_ns <- extend st.enq_ns 0;
  st.word <- extend st.word 0;
  st.uid <- extend st.uid (-1);
  st.payload <- extend st.payload No_payload;
  st.free_stack <- extend st.free_stack 0

let[@inline never] bad_size () =
  invalid_arg "Packet.make: size must be positive"

let[@inline] make_with_word st ~src ~dst ~flow ~size ~ecn ~word payload =
  if size <= 0 then bad_size ();
  let p =
    if st.free_top > 0 then begin
      st.free_top <- st.free_top - 1;
      st.free_stack.(st.free_top)
    end
    else begin
      if st.next_slot = Array.length st.size then grow st;
      st.next_slot <- st.next_slot + 1;
      st.next_slot - 1
    end
  in
  st.size.(p) <- size;
  st.flow.(p) <- flow;
  st.src.(p) <- src;
  st.dst.(p) <- dst;
  st.ecn.(p) <-
    (match ecn with Not_ect -> ecn_not_ect | Ect -> ecn_ect | Ce -> ecn_ce);
  st.enq_ns.(p) <- 0;
  st.word.(p) <- word;
  (* Ids come from the owning simulation's counter (Sim.fresh_id), not a
     process-global Atomic: per-run sequences are deterministic
     regardless of what other simulations the process hosts, and
     concurrent runs (Exp.Runner -j) don't bounce a shared cache line. *)
  st.uid.(p) <- Engine.Sim.fresh_id st.sim;
  (* Most packets carry no boxed payload (TCP keeps its header in
     [word]), so the slot usually holds [No_payload] already: skipping
     the store then saves the write barrier. *)
  if st.payload.(p) != payload then st.payload.(p) <- payload;
  st.live <- st.live + 1;
  p

let make st ~src ~dst ~flow ~size ~ecn payload =
  make_with_word st ~src ~dst ~flow ~size ~ecn ~word:0 payload

(* Handles are owned linearly: whoever consumes a packet (a terminal
   flow handler, a dropping queue, a routeless switch, a lossy link)
   frees it, exactly once. The uid check catches double frees — a
   recycled handle would otherwise silently alias a newer packet. *)
let[@inline never] double_free () =
  invalid_arg "Packet.free: handle already freed"

let[@inline] free st p =
  if st.uid.(p) < 0 then double_free ();
  st.uid.(p) <- -1;
  (* don't pin a dead transport payload *)
  if st.payload.(p) != No_payload then st.payload.(p) <- No_payload;
  st.free_stack.(st.free_top) <- p;
  st.free_top <- st.free_top + 1;
  st.live <- st.live - 1

let id st p = st.uid.(p)
let src st p = st.src.(p)
let dst st p = st.dst.(p)
let flow st p = st.flow.(p)
let size st p = st.size.(p)
let payload st p = st.payload.(p)
let word st p = st.word.(p)

let mark_ce st p = if st.ecn.(p) <> ecn_not_ect then st.ecn.(p) <- ecn_ce
let is_ce st p = st.ecn.(p) = ecn_ce
let is_ect st p = st.ecn.(p) <> ecn_not_ect
let set_enq_ns st p ns = st.enq_ns.(p) <- ns
let enq_ns st p = st.enq_ns.(p)
let live_count st = st.live
let pool_size st = st.next_slot
