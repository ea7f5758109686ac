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
   - pop finds the next occupied 32 ns tick through per-level occupancy
     bitmasks (find-first-set, not a scan) and cascades higher-level
     buckets down only when the virtual clock actually crosses into
     them — each event is filed at most [levels] times over its life;
   - event records come from a free-list pool, so steady schedule/fire
     and schedule/cancel churn allocates nothing;
   - ids handed to callers are immediate ints carrying a generation
     stamp, so a stale [cancel] (after the record was recycled) is
     detected and ignored instead of corrupting an unrelated event.

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
   - {e overflow}: events beyond the wheel horizon (2^30 ns ≈ 1.07 s
     past the current position). When the wheel drains below them the
     clock jumps to the earliest overflow block and that block's events
     cascade into the wheel — in heap order, so same-instant residents
     arrive seq-sorted.

   Heap-resident events cancel lazily (marked dead, skipped at the root,
   swept when the dead outnumber half the heap); wheel-resident events —
   the hot case — cancel in O(1). *)

(* Wheel geometry: [levels] levels of [slots] buckets over [tick_bits]-
   wide ticks. Level 0 buckets are one tick (32 ns) wide; level l buckets
   span 2^(5 + 5l) ns. The wheel as a whole covers keys sharing the
   current position's bits at or above [horizon_bits]; everything further
   out is overflow.

   Why a 32 ns tick and not 1 ns: with 1.2 us serialization and 25 us
   propagation delays, a 1 ns bottom level sees almost no event filed
   into it directly, so each fired event was filed 2-3 levels up and
   cascaded down through every level in between — 3.2 bucket inserts and
   2.0 [wheel_min] iterations per fired event on fig_queue DCTCP N=100.
   With 32 ns ticks that falls to 2.25 inserts and 1.15 iterations. The
   price is that a bottom bucket may hold distinct keys, kept in
   (key, seq) order by a walk back from the tail; counted over whole
   runs, the walk takes 0 steps per fired event on fig_queue N=100 and
   0.09 on fig_fattree DCTCP k=8. Wider ticks lose that: at 256 and
   1024 ns the same fat-tree run walks 1.9 and 9.3 steps per event. *)
let tick_bits = 5
let slot_bits = 5
let slots = 1 lsl slot_bits (* 32 *)
let slot_mask = slots - 1
let levels = 5
let horizon_bits = tick_bits + (slot_bits * levels) (* 30 *)

(* Location codes for [where]: a bucket index [level * slots + slot], or
   one of these. *)
let loc_none = -1
let loc_overdue = -2
let loc_overflow = -3

type event = {
  mutable key_ns : int;
      (* Scheduled instant in integer nanoseconds; the primary sort key.
         An [int] (not [int64]) so compares are single unboxed compares —
         fine for any simulated instant below 2^62 ns. *)
  mutable seq : int;  (* FIFO tie-break: schedule order within an instant. *)
  mutable action : unit -> unit;
  mutable cls : int;
      (* {!Event_class} index tag, carried for the self-profiler. An
         immediate int: tagging costs one mutable-field store. *)
  mutable live : bool;  (* Scheduled and not cancelled, not yet fired. *)
  mutable gen : int;  (* Bumped on every release; validates ids. *)
  mutable next_free : int;  (* Free-list link (pool index), -1 = end. *)
  mutable where : int;  (* Bucket index, or a [loc_*] code. *)
  mutable next_ev : int;  (* Intrusive bucket-list links (pool indices). *)
  mutable prev_ev : int;
  idx : int;  (* This record's pool slot; never changes. *)
}

type id = int

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
  mutable pool_len : int;
  mutable free_head : int;  (* head of the free list, -1 = empty *)
  mutable next_seq : int;
  mutable live_count : int;
  mutable pos : int;
      (* The wheel's virtual position (ns): the key of the last event
         popped out of the wheel, monotone. Bucket membership is always
         relative to [pos]. *)
  head : int array;  (* bucket -> first pool index, -1 = empty *)
  tail : int array;  (* bucket -> last pool index, -1 = empty *)
  masks : int array;  (* level -> occupancy bitmask over its 32 slots *)
  overdue : mini;
  overflow : mini;
  mutable popped_time : Time.t;
  mutable popped_action : unit -> unit;
  mutable popped_cls : int;
}

let create ?(capacity = 1024) () =
  let capacity = Stdlib.max capacity 1 in
  {
    pool = [||];
    pool_len = 0;
    free_head = -1;
    next_seq = 0;
    live_count = 0;
    pos = 0;
    head = Array.make (levels * slots) (-1);
    tail = Array.make (levels * slots) (-1);
    masks = Array.make levels 0;
    overdue = { arr = Array.make 8 (-1); n = 0; dead = 0 };
    overflow = { arr = Array.make capacity (-1); n = 0; dead = 0 };
    popped_time = Time.zero;
    popped_action = noop;
    popped_cls = 0;
  }

let live t = t.live_count
let pool_size t = t.pool_len

(* Occupancy actually held: live events plus cancelled heap residents not
   yet swept (wheel cancels recycle immediately and never linger). *)
let length t = t.live_count + t.overdue.dead + t.overflow.dead

let overdue_len t = t.overdue.n
let overflow_len t = t.overflow.n

(* --- pool ---------------------------------------------------------- *)

let new_event idx =
  {
    key_ns = 0;
    seq = 0;
    action = noop;
    cls = 0;
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
  t.pool <- data

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
   The generation bump invalidates outstanding ids; dropping the action
   reference keeps the pool from pinning closures the caller is done
   with. *)
let release t ev =
  ev.gen <- ev.gen + 1;
  ev.live <- false;
  ev.action <- noop;
  ev.where <- loc_none;
  ev.next_ev <- -1;
  ev.prev_ev <- -1;
  ev.next_free <- t.free_head;
  t.free_head <- ev.idx

(* --- find-first-set ------------------------------------------------- *)

(* De Bruijn multiply: index of the lowest set bit of a 32-bit mask in a
   handful of arithmetic ops, no loop. The [land 0xFFFFFFFF] is load-
   bearing — the classic constant relies on 32-bit truncation. *)
let debruijn = 0x077CB531

let ctz_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * debruijn) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let ctz m = ctz_table.((((m land (-m)) * debruijn) land 0xFFFFFFFF) lsr 27)

(* Smallest level whose bucket span covers [x] = (key lxor pos) lsr
   tick_bits. Written as a compare chain: branch-predictable, no loop, no
   table. [x < 2^25] always holds, since [file] sends keys outside the
   position's horizon block to the overflow heap. *)
let level_of_xor x =
  if x < 0x20 then 0
  else if x < 0x400 then 1
  else if x < 0x8000 then 2
  else if x < 0x100000 then 3
  else 4

(* --- wheel buckets -------------------------------------------------- *)

(* [a] sorts strictly before [b] in (key, seq) order: the queue's one
   ordering, shared by the level-0 buckets and the backstop heaps. *)
let[@inline] before a b =
  a.key_ns < b.key_ns || (a.key_ns = b.key_ns && a.seq < b.seq)

(* Link [ev] into bucket [b]. A level-0 bucket ([b < slots]) is kept in
   ascending (key, seq) order, so its head is the bucket's minimum: an
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
    t.masks.(b lsr slot_bits) <-
      t.masks.(b lsr slot_bits) lor (1 lsl (b land slot_mask))
  end
  else if b >= slots || before pool.(tl) ev then begin
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
  if t.head.(b) < 0 then
    t.masks.(b lsr slot_bits) <-
      t.masks.(b lsr slot_bits) land lnot (1 lsl (b land slot_mask))

(* File a live event whose key shares the current position's top block.
   The level is the highest 5-bit block above the tick where key and pos
   differ; the slot is the key's bits at that level. Keys within [pos]'s
   own 1024 ns level-0 span land in level 0, slot [(key lsr 5) land 31]. *)
let wheel_insert t ev =
  let l = level_of_xor ((ev.key_ns lxor t.pos) lsr tick_bits) in
  let s = (ev.key_ns lsr (tick_bits + (l * slot_bits))) land slot_mask in
  bucket_insert t ev ((l lsl slot_bits) lor s)

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

let add_cls t ~time ~cls action =
  let ev = alloc t in
  ev.key_ns <- Time.to_int_ns time;
  ev.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  ev.action <- action;
  ev.cls <- cls;
  ev.live <- true;
  t.live_count <- t.live_count + 1;
  file t ev;
  id_of ev

(* [~cls] is a required label (not optional): an optional int argument
   would box [Some cls] on every call, and this is the hot path. *)
let add t ~time action = add_cls t ~time ~cls:0 action

let cancel t id =
  let idx = id lsr gen_bits in
  if idx < 0 || idx >= t.pool_len then false
  else begin
    let ev = t.pool.(idx) in
    if ev.live && ev.gen land gen_mask = id land gen_mask then begin
      t.live_count <- t.live_count - 1;
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
  t.masks.(b lsr slot_bits) <-
    t.masks.(b lsr slot_bits) land lnot (1 lsl (b land slot_mask));
  while !cur >= 0 do
    let ev = pool.(!cur) in
    cur := ev.next_ev;
    wheel_insert t ev
  done

(* Pool index of the wheel's earliest event — the head of the first
   occupied level-0 bucket at or after [pos]'s tick — or -1 when the
   wheel is empty. Advances [pos] to that event's key, cascading any
   higher-level bucket the position crosses into; skipped slots are
   provably empty, so the advance never loses an event. Setting [pos] to
   the key itself, not to its tick's start, keeps every wheel resident
   at or after [pos], so [file]'s "key < pos means overdue" stays exact.
   Each iteration either returns or strictly descends a level, bounding
   the loop at [levels] steps. *)
let wheel_min t =
  let result = ref (-2) in
  while !result = -2 do
    let m0 =
      t.masks.(0) land (-1 lsl ((t.pos lsr tick_bits) land slot_mask))
    in
    if m0 <> 0 then begin
      let h = t.head.(ctz m0) in
      t.pos <- t.pool.(h).key_ns;
      result := h
    end
    else begin
      (* Level 0 exhausted: find the lowest level with a bucket strictly
         ahead of the position's slot there. Within one parent block,
         higher slot = later span, so masking below (slot + 1) is exact —
         no wraparound case exists. *)
      let l = ref 1 in
      let found = ref (-1) in
      while !found < 0 && !l < levels do
        let sl =
          (t.pos lsr (tick_bits + (!l * slot_bits))) land slot_mask
        in
        let m = t.masks.(!l) land (-1 lsl (sl + 1)) in
        if m <> 0 then found := (!l lsl slot_bits) lor ctz m else incr l
      done;
      if !found < 0 then result := -1
      else begin
        let l = !found lsr slot_bits and s = !found land slot_mask in
        (* Enter the bucket's span: keep the bits above it, set its slot,
           zero everything below. *)
        let shift = tick_bits + (slot_bits * l) in
        let above = shift + slot_bits in
        t.pos <- ((t.pos lsr above) lsl above) lor (s lsl shift);
        cascade t !found
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
   root still files into the wheel. *)

let pop_until t stop_ns =
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
    t.popped_action <- ev.action;
    t.popped_cls <- ev.cls;
    release t ev;
    true
  end

let pop t = pop_until t max_int

let popped_time t = t.popped_time
let popped_action t = t.popped_action
let popped_cls t = t.popped_cls
