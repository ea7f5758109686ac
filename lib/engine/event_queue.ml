(* Monomorphic event queue: a hierarchical bucketed timing wheel
   (Varghese–Lauck style) over pooled event records, keyed on (time, seq).
   This is the simulator's hot path; the wheel replaces an implicit
   4-ary min-heap because the event mix is timer-dominated — RTO rearms,
   pacing ticks, link serialization completions — which is exactly the
   workload wheels make near-O(1):

   - schedule is a level computation (one xor, a short compare chain) and
     a list append — in a level-0 bucket at most a short walk back from
     the tail: no O(log n) sift;
   - cancel unlinks the slot from its bucket's intrusive doubly-linked
     list and recycles it immediately: no dead weight carried to the next
     compaction sweep, no sweep at all for wheel-resident events;
   - pop finds the next occupied 32 ns tick through occupancy bitmaps
     (find-first-set, not a scan) and cascades higher-level buckets down
     only when the virtual clock actually crosses into them — each event
     is filed at most once per level over its life;
   - event records come from a free-list pool, so steady schedule/fire
     and schedule/cancel churn allocates nothing;
   - ids handed to callers are immediate ints carrying a generation
     stamp, so a stale [cancel] (after the record was recycled) is
     detected and ignored instead of corrupting an unrelated event.

   {b No pointer per event.} A record holds only immediate fields: its
   action is an int. Components that re-schedule the same closure
   register it once ({!register}) and schedule its index, so a schedule,
   a pop and a release store no pointer and pay no [caml_modify] write
   barrier. A closure handed to {!add} takes a one-shot slot in an array
   parallel to the pool, indexed by the event's pool slot; the slot is
   cleared when the event is cancelled, or at the pop after the one that
   fired it (the caller runs it in between), so the pool pins no dead
   closure, a one-shot costs two barriers (store, clear), and one-shot
   churn still allocates nothing.

   {b Pop order is strict (key_ns, seq)} — earlier instants first,
   schedule order within an instant — exactly the order of a (key, seq)
   binary heap. A level-0 bucket holds one 32 ns tick, which may contain
   several distinct keys, so its list is kept in ascending (key, seq)
   order: an event that sorts after the tail appends (every same-tick
   add in time order, and every overflow drain), anything else walks
   back from the tail. The head of the first occupied level-0 bucket is
   therefore the wheel's minimum. The qcheck suite proves the
   equivalence against both a naive model and the reference binary heap
   in test/heap.ml.

   Two small (key, seq) binary min-heaps back the wheel up at its edges:

   - {e overdue}: events scheduled at or before an instant the wheel has
     already passed (never produced by {!Sim}, which forbids scheduling
     in the past, but the queue keeps the total order honest under
     arbitrary call sequences);
   - {e overflow}: events beyond the wheel horizon (2^35 ns ≈ 34.4 s
     past the current position). When the wheel drains below them the
     clock jumps to the earliest overflow block and that block's events
     cascade into the wheel — in heap order, so same-instant residents
     arrive seq-sorted.

   Heap-resident events cancel lazily (marked dead, skipped at the root,
   swept when the dead outnumber half the heap); wheel-resident events —
   the hot case — cancel in O(1). *)

(* Wheel geometry: a wide bottom level of [l0_slots] one-tick (32 ns)
   buckets, then [upper] levels of [slots] buckets; level l >= 1 buckets
   span 2^(15 + 5(l-1)) ns. The wheel as a whole covers keys sharing the
   current position's bits at or above [horizon_bits]; everything further
   out is overflow.

   Why a 32 ns tick: with 1.2 us serialization and 25 us propagation
   delays, a 1 ns bottom level sees almost no event filed into it
   directly, and wider ticks make a bottom bucket hold many distinct keys
   (kept in (key, seq) order by a walk back from the tail): at 256 and
   1024 ns a fat-tree DCTCP k=8 run walks 1.9 and 9.3 steps per event,
   at 32 ns 0.09.

   Why 1024 bottom buckets: with 32 of them the bottom level spanned
   1024 ns, shorter than one serialization time, so nearly every event
   was filed a level up and cascaded down — 2.25 bucket inserts per
   fired event on fig_queue and 2.02 on fig_fattree. A 32.8 us bottom
   level holds every serialization completion and most propagation
   deliveries directly: 1.52 and 1.21 inserts per fired event. A
   two-tier bitmap keeps the next-bucket search at two find-first-set
   operations: 32 occupancy words of 32 bits, plus a summary word whose
   bit w says word w is non-zero. *)
let tick_bits = 5
let l0_bits = 10
let l0_slots = 1 lsl l0_bits (* 1024 *)
let l0_mask = l0_slots - 1
let slot_bits = 5
let slots = 1 lsl slot_bits (* 32 *)
let slot_mask = slots - 1
let upper = 4
let l1_shift = tick_bits + l0_bits (* 15 *)
let horizon_bits = l1_shift + (slot_bits * upper) (* 35 *)

(* Buckets [0, l0_slots) are level 0; level l >= 1 slot s is bucket
   [l0_slots + (l-1)*slots + s]. Occupancy word [b lsr 5] holds bucket
   [b]'s bit [b land 31], so words [0, 32) are level 0 and word [31 + l]
   is level l's whole 32-slot mask. *)
let n_buckets = l0_slots + (upper * slots)
let l0_words = l0_slots lsr 5

(* Location codes for [where]: a bucket index, or one of these. *)
let loc_none = -1
let loc_overdue = -2
let loc_overflow = -3

type event = {
  mutable key_ns : int;
      (* Scheduled instant in integer nanoseconds; the primary sort key.
         An [int] (not [int64]) so compares are single unboxed compares —
         fine for any simulated instant below 2^62 ns. *)
  mutable seq : int;  (* FIFO tie-break: schedule order within an instant. *)
  mutable act : int;
      (* [>= 0]: a registered action's index. [< 0]: a one-shot whose
         closure sits in [t.oneshot.(idx)], with class [-1 - act]. *)
  mutable live : bool;  (* Scheduled and not cancelled, not yet fired. *)
  mutable gen : int;  (* Bumped on every release; validates ids. *)
  mutable next_free : int;  (* Free-list link (pool index), -1 = end. *)
  mutable where : int;  (* Bucket index, or a [loc_*] code. *)
  mutable next_ev : int;  (* Intrusive bucket-list links (pool indices). *)
  mutable prev_ev : int;
  idx : int;  (* This record's pool slot; never changes. *)
}

type id = int
type action = int

let no_action = -1

let noop () = ()

(* id layout: [idx lsl gen_bits | gen mod 2^gen_bits]. A stale id only
   aliases a reused slot after the same record has been recycled 2^32
   times while the caller still holds the old id. *)
let gen_bits = 32
let gen_mask = (1 lsl gen_bits) - 1

(* The packing needs idx and gen to occupy disjoint bit ranges of a
   native int. On a 32-bit target (or js_of_ocaml) [idx lsl 32] is 0
   for every slot, so all ids would alias pool slot 0 and stale-cancel
   detection would silently break — fail loudly instead. *)
let () =
  if Sys.int_size < 63 then
    failwith "Event_queue: requires 63-bit native ints (32-bit unsupported)"

let id_of ev = (ev.idx lsl gen_bits) lor (ev.gen land gen_mask)
let none = -1

(* A (key, seq) binary min-heap of pool indices: the overdue / overflow
   backstops. Cancelled entries stay until the root sweep or a compaction
   reaches them (the wheel's own buckets never hold dead events). *)
type mini = {
  mutable arr : int array;
  mutable n : int;
  mutable dead : int;
}

type t = {
  mutable pool : event array;  (* pool slot -> record, in [0, pool_len) *)
  mutable oneshot : (unit -> unit) array;
      (* pool slot -> the pending one-shot closure, [noop] otherwise *)
  mutable pool_len : int;
  mutable free_head : int;  (* head of the free list, -1 = empty *)
  mutable actions : (unit -> unit) array;  (* registered action table *)
  mutable action_cls : int array;  (* registered action -> class tag *)
  mutable n_actions : int;
  mutable next_seq : int;
  mutable live_count : int;
  mutable pos : int;
      (* The wheel's virtual position (ns): the key of the last event
         popped out of the wheel, monotone. Bucket membership is always
         relative to [pos]. *)
  head : int array;  (* bucket -> first pool index, -1 = empty *)
  tail : int array;  (* bucket -> last pool index, -1 = empty *)
  occ : int array;  (* occupancy words, see [n_buckets] *)
  mutable summary : int;  (* bit w set iff level-0 word [occ.(w)] <> 0 *)
  overdue : mini;
  overflow : mini;
  mutable popped_time : Time.t;
  mutable popped_act : int;  (* the fired event's [act] *)
  mutable fired : int;
      (* Pool slot of the last popped one-shot, or -1. Its closure stays
         in [oneshot] for the caller to run, and the record stays off the
         free list so no add can take the slot, until the next pop. *)
}

let create ?(capacity = 1024) () =
  let capacity = Stdlib.max capacity 1 in
  {
    pool = [||];
    oneshot = [||];
    pool_len = 0;
    free_head = -1;
    actions = [||];
    action_cls = [||];
    n_actions = 0;
    next_seq = 0;
    live_count = 0;
    pos = 0;
    head = Array.make n_buckets (-1);
    tail = Array.make n_buckets (-1);
    occ = Array.make (n_buckets lsr 5) 0;
    summary = 0;
    overdue = { arr = Array.make 8 (-1); n = 0; dead = 0 };
    overflow = { arr = Array.make capacity (-1); n = 0; dead = 0 };
    popped_time = Time.zero;
    popped_act = -1;
    fired = -1;
  }

let live t = t.live_count
let pool_size t = t.pool_len

(* Occupancy actually held: live events plus cancelled heap residents not
   yet swept (wheel cancels recycle immediately and never linger). *)
let length t = t.live_count + t.overdue.dead + t.overflow.dead

let overdue_len t = t.overdue.n
let overflow_len t = t.overflow.n

(* --- actions -------------------------------------------------------- *)

let register t ~cls f =
  if cls < 0 then invalid_arg "Event_queue.register: negative class";
  if t.n_actions = Array.length t.actions then begin
    let cap = Stdlib.max 8 (2 * t.n_actions) in
    let actions = Array.make cap noop and classes = Array.make cap 0 in
    Array.blit t.actions 0 actions 0 t.n_actions;
    Array.blit t.action_cls 0 classes 0 t.n_actions;
    t.actions <- actions;
    t.action_cls <- classes
  end;
  let a = t.n_actions in
  t.actions.(a) <- f;
  t.action_cls.(a) <- cls;
  t.n_actions <- a + 1;
  a

(* --- pool ---------------------------------------------------------- *)

let new_event idx =
  {
    key_ns = 0;
    seq = 0;
    act = 0;
    live = false;
    gen = 0;
    next_free = -1;
    where = loc_none;
    next_ev = -1;
    prev_ev = -1;
    idx;
  }

let grow_pool t =
  let cap = Stdlib.max 8 (2 * Array.length t.pool) in
  let data = Array.make cap (new_event (-1)) in
  Array.blit t.pool 0 data 0 t.pool_len;
  t.pool <- data;
  let fns = Array.make cap noop in
  Array.blit t.oneshot 0 fns 0 t.pool_len;
  t.oneshot <- fns

let alloc t =
  if t.free_head >= 0 then begin
    let ev = t.pool.(t.free_head) in
    t.free_head <- ev.next_free;
    ev.next_free <- -1;
    ev
  end
  else begin
    if t.pool_len = Array.length t.pool then grow_pool t;
    let ev = new_event t.pool_len in
    t.pool.(t.pool_len) <- ev;
    t.pool_len <- t.pool_len + 1;
    ev
  end

(* A record is released exactly once, when it leaves the structure
   (fired, cancelled out of the wheel, or swept out of a backstop heap).
   The generation bump invalidates outstanding ids. Every field is an
   immediate, so this stores no pointer; a one-shot's closure was already
   dropped by [drop_oneshot]. *)
let release t ev =
  ev.gen <- ev.gen + 1;
  ev.live <- false;
  ev.where <- loc_none;
  ev.next_ev <- -1;
  ev.prev_ev <- -1;
  ev.next_free <- t.free_head;
  t.free_head <- ev.idx

let drop_oneshot t ev = if ev.act < 0 then t.oneshot.(ev.idx) <- noop

(* --- find-first-set ------------------------------------------------- *)

(* De Bruijn multiply: index of the lowest set bit of a 32-bit mask in a
   handful of arithmetic ops, no loop. The [land 0xFFFFFFFF] is load-
   bearing — the classic constant relies on 32-bit truncation. *)
let debruijn = 0x077CB531

(* Filled once at module initialisation, before any domain can exist, and
   only read afterwards: sharing it across Exp.Runner's domains is safe. *)
let ctz_table = (* dtlint: allow R12 *)
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * debruijn) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let ctz m = ctz_table.((((m land (-m)) * debruijn) land 0xFFFFFFFF) lsr 27)

(* --- wheel buckets -------------------------------------------------- *)

let mark t b =
  let w = b lsr 5 in
  let m = t.occ.(w) in
  if m = 0 && w < l0_words then t.summary <- t.summary lor (1 lsl w);
  t.occ.(w) <- m lor (1 lsl (b land 31))

let unmark t b =
  let w = b lsr 5 in
  let m = t.occ.(w) land lnot (1 lsl (b land 31)) in
  t.occ.(w) <- m;
  if m = 0 && w < l0_words then t.summary <- t.summary land lnot (1 lsl w)

(* [a] sorts strictly before [b] in (key, seq) order: the queue's one
   ordering, shared by the level-0 buckets and the backstop heaps. *)
let[@inline] before a b =
  a.key_ns < b.key_ns || (a.key_ns = b.key_ns && a.seq < b.seq)

(* Link [ev] into bucket [b]. A level-0 bucket ([b < l0_slots]) is kept
   in ascending (key, seq) order, so its head is the bucket's minimum: an
   event that sorts after the tail appends, anything else walks back from
   the tail to its spot. Direct adds carry the highest seq ever issued,
   so they only walk past residents of the same tick with later keys.
   Higher-level buckets are plain appends: a cascade re-files every
   resident anyway, so their order is never observed. *)
let bucket_insert t ev b =
  let pool = t.pool in
  ev.where <- b;
  let tl = t.tail.(b) in
  if tl < 0 then begin
    ev.prev_ev <- -1;
    ev.next_ev <- -1;
    t.head.(b) <- ev.idx;
    t.tail.(b) <- ev.idx;
    mark t b
  end
  else if b >= l0_slots || before pool.(tl) ev then begin
    ev.prev_ev <- tl;
    ev.next_ev <- -1;
    pool.(tl).next_ev <- ev.idx;
    t.tail.(b) <- ev.idx
  end
  else begin
    let p = ref pool.(tl).prev_ev in
    while !p >= 0 && not (before pool.(!p) ev) do
      p := pool.(!p).prev_ev
    done;
    let prev = !p in
    let next = if prev < 0 then t.head.(b) else pool.(prev).next_ev in
    ev.prev_ev <- prev;
    ev.next_ev <- next;
    pool.(next).prev_ev <- ev.idx;
    if prev < 0 then t.head.(b) <- ev.idx else pool.(prev).next_ev <- ev.idx
  end

let bucket_unlink t ev =
  let b = ev.where in
  let pool = t.pool in
  if ev.prev_ev >= 0 then pool.(ev.prev_ev).next_ev <- ev.next_ev
  else t.head.(b) <- ev.next_ev;
  if ev.next_ev >= 0 then pool.(ev.next_ev).prev_ev <- ev.prev_ev
  else t.tail.(b) <- ev.prev_ev;
  if t.head.(b) < 0 then unmark t b

(* File a live event whose key shares the current position's horizon
   block. With x = (key lxor pos) lsr tick_bits, keys within [pos]'s own
   32.8 us level-0 span (x < 2^10) land in level 0, bucket
   [(key lsr 5) land 1023]; otherwise the level is the highest 5-bit
   block above bit 15 where key and pos differ, and the slot is the key's
   bits at that level. Written as a compare chain: branch-predictable, no
   loop, no table. [x < 2^30] always holds, since [file] sends keys
   outside the position's horizon block to the overflow heap. *)
let wheel_insert t ev =
  let key = ev.key_ns in
  let x = (key lxor t.pos) lsr tick_bits in
  if x < 0x400 then bucket_insert t ev ((key lsr tick_bits) land l0_mask)
  else begin
    let l =
      if x < 0x8000 then 0
      else if x < 0x100000 then 1
      else if x < 0x2000000 then 2
      else 3
    in
    let s = (key lsr (l1_shift + (l * slot_bits))) land slot_mask in
    bucket_insert t ev (l0_slots + (l lsl slot_bits) + s)
  end

(* --- backstop heaps ------------------------------------------------- *)

let mini_less pool a b = before pool.(a) pool.(b)

let mini_push t (m : mini) ev =
  if m.n = Array.length m.arr then begin
    let arr = Array.make (2 * m.n) (-1) in
    Array.blit m.arr 0 arr 0 m.n;
    m.arr <- arr
  end;
  let pool = t.pool in
  let arr = m.arr in
  let i = ref m.n in
  m.n <- m.n + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if mini_less pool ev.idx arr.(p) then begin
      arr.(!i) <- arr.(p);
      i := p
    end
    else continue := false
  done;
  arr.(!i) <- ev.idx

let mini_drop_root pool (m : mini) =
  m.n <- m.n - 1;
  let last = m.arr.(m.n) in
  m.arr.(m.n) <- -1;
  if m.n > 0 then begin
    let arr = m.arr in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c1 = (2 * !i) + 1 in
      if c1 >= m.n then continue := false
      else begin
        let c =
          if c1 + 1 < m.n && mini_less pool arr.(c1 + 1) arr.(c1) then c1 + 1
          else c1
        in
        if mini_less pool arr.(c) last then begin
          arr.(!i) <- arr.(c);
          i := c
        end
        else continue := false
      end
    done;
    arr.(!i) <- last
  end

(* Root pool index after recycling any dead entries sitting on top, or
   -1 when the heap has no live entry reachable without a full sweep
   (dead entries below live ones are left for the compaction policy). *)
let rec mini_min t (m : mini) =
  if m.n = 0 then -1
  else begin
    let r = m.arr.(0) in
    if t.pool.(r).live then r
    else begin
      mini_drop_root t.pool m;
      m.dead <- m.dead - 1;
      release t t.pool.(r);
      mini_min t m
    end
  end

(* Drop every dead entry, then bottom-up heapify in O(n). *)
let mini_compact t (m : mini) =
  let pool = t.pool in
  let j = ref 0 in
  for i = 0 to m.n - 1 do
    let e = m.arr.(i) in
    if pool.(e).live then begin
      m.arr.(!j) <- e;
      incr j
    end
    else release t pool.(e)
  done;
  for i = !j to m.n - 1 do
    m.arr.(i) <- -1
  done;
  m.n <- !j;
  m.dead <- 0;
  for i = ((m.n - 2) asr 1) downto 0 do
    let v = m.arr.(i) in
    let k = ref i in
    let continue = ref true in
    while !continue do
      let c1 = (2 * !k) + 1 in
      if c1 >= m.n then continue := false
      else begin
        let c =
          if c1 + 1 < m.n && mini_less pool m.arr.(c1 + 1) m.arr.(c1) then
            c1 + 1
          else c1
        in
        if mini_less pool m.arr.(c) v then begin
          m.arr.(!k) <- m.arr.(c);
          k := c
        end
        else continue := false
      end
    done;
    m.arr.(!k) <- v
  done

(* --- scheduling ----------------------------------------------------- *)

let file t ev =
  let key = ev.key_ns in
  if key < t.pos then begin
    ev.where <- loc_overdue;
    mini_push t t.overdue ev
  end
  else if key lsr horizon_bits = t.pos lsr horizon_bits then wheel_insert t ev
  else begin
    ev.where <- loc_overflow;
    mini_push t t.overflow ev
  end

(* Allocate, stamp and file a record carrying [act]; returns it so the
   one-shot entry points can fill the closure slot. *)
let add_act t ~time act =
  let ev = alloc t in
  ev.key_ns <- Time.to_int_ns time;
  ev.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  ev.act <- act;
  ev.live <- true;
  t.live_count <- t.live_count + 1;
  file t ev;
  ev

let add_action t ~time a =
  if a < 0 || a >= t.n_actions then
    invalid_arg "Event_queue.add_action: not a registered action";
  id_of (add_act t ~time a)

(* [~cls] is a required label (not optional): an optional int argument
   would box [Some cls] on every call. *)
let add_cls t ~time ~cls action =
  if cls < 0 then invalid_arg "Event_queue.add_cls: negative class";
  let ev = add_act t ~time (-1 - cls) in
  t.oneshot.(ev.idx) <- action;
  id_of ev

let add t ~time action = add_cls t ~time ~cls:0 action

let cancel t id =
  let idx = id lsr gen_bits in
  if idx < 0 || idx >= t.pool_len then false
  else begin
    let ev = t.pool.(idx) in
    if ev.live && ev.gen land gen_mask = id land gen_mask then begin
      t.live_count <- t.live_count - 1;
      drop_oneshot t ev;
      if ev.where >= 0 then begin
        (* Wheel resident: unlink and recycle immediately — the O(1)
           cancel is the point of the wheel for rearm-heavy timers. *)
        bucket_unlink t ev;
        release t ev
      end
      else begin
        (* Heap resident: mark dead, sweep lazily once corpses dominate. *)
        ev.live <- false;
        let m = if ev.where = loc_overdue then t.overdue else t.overflow in
        m.dead <- m.dead + 1;
        if m.n >= 64 && 2 * m.dead > m.n then mini_compact t m
      end;
      true
    end
    else false
  end

(* --- the wheel's virtual clock -------------------------------------- *)

(* Pull the contents of bucket [b] (level >= 1) back through [file]: with
   [pos] just advanced into the bucket's span, every resident re-files at
   a strictly lower level, and those reaching level 0 take their
   (key, seq) place via [bucket_insert]'s tail walk. *)
let cascade t b =
  let pool = t.pool in
  let cur = ref t.head.(b) in
  t.head.(b) <- -1;
  t.tail.(b) <- -1;
  unmark t b;
  while !cur >= 0 do
    let ev = pool.(!cur) in
    cur := ev.next_ev;
    wheel_insert t ev
  done

(* First occupied level-0 bucket at or after [pos]'s tick, or -1: the
   word holding that tick masked below it, else the summary word's next
   non-zero word. Level-0 residents share [pos]'s bits from 15 up and are
   never earlier than [pos], so no bucket below [pos]'s tick is occupied
   and no wraparound case exists. *)
let next_l0 t =
  let s = (t.pos lsr tick_bits) land l0_mask in
  let w = s lsr 5 in
  let m = t.occ.(w) land (-1 lsl (s land 31)) in
  if m <> 0 then (w lsl 5) lor ctz m
  else begin
    let sm = t.summary land (-1 lsl (w + 1)) in
    if sm = 0 then -1
    else
      let w = ctz sm in
      (w lsl 5) lor ctz t.occ.(w)
  end

(* Pool index of the wheel's earliest event — the head of the first
   occupied level-0 bucket at or after [pos]'s tick — or -1 when the
   wheel is empty. Advances [pos] to that event's key, cascading any
   higher-level bucket the position crosses into; skipped slots are
   provably empty, so the advance never loses an event. Setting [pos] to
   the key itself, not to its tick's start, keeps every wheel resident
   at or after [pos], so [file]'s "key < pos means overdue" stays exact.
   Each iteration either returns or strictly descends a level, bounding
   the loop at [upper + 1] steps. *)
let wheel_min t =
  let result = ref (-2) in
  while !result = -2 do
    let b = next_l0 t in
    if b >= 0 then begin
      let h = t.head.(b) in
      t.pos <- t.pool.(h).key_ns;
      result := h
    end
    else begin
      (* Level 0 exhausted: find the lowest upper level with a bucket
         strictly ahead of the position's slot there. Within one parent
         block, higher slot = later span, so masking below (slot + 1) is
         exact — no wraparound case exists. *)
      let l = ref 0 in
      let found = ref (-1) in
      while !found < 0 && !l < upper do
        let sl =
          (t.pos lsr (l1_shift + (!l * slot_bits))) land slot_mask
        in
        let m = t.occ.(l0_words + !l) land (-1 lsl (sl + 1)) in
        if m <> 0 then found := ctz m else incr l
      done;
      if !found < 0 then result := -1
      else begin
        (* Enter the bucket's span: keep the bits above it, set its slot,
           zero everything below. *)
        let shift = l1_shift + (slot_bits * !l) in
        let above = shift + slot_bits in
        t.pos <- ((t.pos lsr above) lsl above) lor (!found lsl shift);
        cascade t (l0_slots + (!l lsl slot_bits) + !found)
      end
    end
  done;
  !result

(* Jump the wheel to the earliest overflow block and file that whole
   block's events. Heap pops deliver them in (key, seq) order, so every
   level-0 arrival appends at its bucket's tail. Only called when the wheel
   is empty, so the position jump cannot skip a wheel event. *)
let drain_overflow t root =
  let pool = t.pool in
  t.pos <- pool.(root).key_ns;
  let block = t.pos lsr horizon_bits in
  let continue = ref true in
  while !continue do
    let r = mini_min t t.overflow in
    if r >= 0 && pool.(r).key_ns lsr horizon_bits = block then begin
      mini_drop_root pool t.overflow;
      wheel_insert t pool.(r)
    end
    else continue := false
  done

(* --- pop ------------------------------------------------------------ *)

(* The three sources, cheapest first. The wheel beats the overflow heap
   by construction (overflow keys live beyond the wheel's whole span);
   only the overdue heap can undercut a wheel event. One walk finds the
   live minimum and fires it if it is due, so a run-until loop pays for
   [wheel_min] and both heap roots once per event. An overflow block is
   drained only when its root is due: the wheel position never jumps
   past [stop_ns], so an event scheduled between the deadline and that
   root still files into the wheel.

   The previous pop's one-shot, which the caller has run by now, is let
   go first: its closure dropped and its record released. A registered
   action's pop stores no pointer at all. *)

let pop_until t stop_ns =
  let f = t.fired in
  if f >= 0 then begin
    t.fired <- -1;
    let ev = t.pool.(f) in
    drop_oneshot t ev;
    release t ev
  end;
  let w = wheel_min t in
  let w =
    if w >= 0 then w
    else begin
      let o = mini_min t t.overflow in
      if o < 0 || t.pool.(o).key_ns > stop_ns then -1
      else begin
        let od = mini_min t t.overdue in
        if od >= 0 && mini_less t.pool od o then -1
        else begin
          drain_overflow t o;
          wheel_min t
        end
      end
    end
  in
  let best =
    let od = mini_min t t.overdue in
    if od >= 0 && (w < 0 || mini_less t.pool od w) then od else w
  in
  if best < 0 || t.pool.(best).key_ns > stop_ns then false
  else begin
    let ev = t.pool.(best) in
    if ev.where >= 0 then bucket_unlink t ev
    else mini_drop_root t.pool t.overdue;
    t.live_count <- t.live_count - 1;
    t.popped_time <- Time.of_int_ns ev.key_ns;
    t.popped_act <- ev.act;
    if ev.act >= 0 then release t ev
    else begin
      (* Fired: no longer live, so its id already fails [cancel]. *)
      ev.live <- false;
      t.fired <- ev.idx
    end;
    true
  end

let pop t = pop_until t max_int

let popped_time t = t.popped_time

let popped_action t =
  if t.popped_act >= 0 then t.actions.(t.popped_act)
  else if t.fired >= 0 then t.oneshot.(t.fired)
  else noop

let popped_cls t =
  if t.popped_act >= 0 then t.action_cls.(t.popped_act) else -1 - t.popped_act
