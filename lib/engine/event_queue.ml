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
     list and recycles it immediately: no dead weight, no sweep;
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
   add in time order), anything else walks back from the tail. The head
   of the first occupied level-0 bucket is therefore the wheel's
   minimum. The qcheck suite proves the equivalence against both a
   naive model and the reference binary heap in test/heap.ml.

   Events beyond the wheel horizon (outside the current position's
   2^35 ns ≈ 34.4 s block) wait in one more intrusive bucket, [far],
   unordered. When the wheel drains below them the clock jumps to the
   earliest far key and that key's horizon block is re-filed into the
   wheel, where the level-0 tail walk restores (key, seq) order. Every
   cancel, far ones included, is the same O(1) unlink.

   {b The position never passes the deadline.} [pop_until] moves the
   position to an event's key or to an upper bucket's span only when
   that point is at or before its [stop_ns]. A caller whose clock rests
   at the last popped key or the last deadline (as {!Sim}'s does) can
   therefore always add at or after its clock; an add before the
   position is rejected, so the wheel is the only ordered structure. *)

(* Wheel geometry: a wide bottom level of [l0_slots] one-tick (32 ns)
   buckets, then [upper] levels of [slots] buckets; level l >= 1 buckets
   span 2^(15 + 5(l-1)) ns. The wheel as a whole covers keys sharing the
   current position's bits at or above [horizon_bits]; everything further
   out waits in the [far] bucket.

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

(* The past-horizon bucket, after the wheel's: its occupancy bit sits
   alone in one more word, which no wheel search reads. *)
let far = n_buckets

(* [where] of a record in no bucket (free, or fired). *)
let loc_none = -1

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
  mutable where : int;  (* Bucket index, or [loc_none]. *)
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
      (* The wheel's virtual position (ns), monotone: at or before every
         resident's key and at or before the last [stop_ns] that moved
         it. Bucket membership is always relative to [pos]. *)
  head : int array;  (* bucket ([far] included) -> first pool index, -1 = empty *)
  tail : int array;  (* bucket -> last pool index, -1 = empty *)
  occ : int array;  (* occupancy words, see [n_buckets] *)
  mutable summary : int;  (* bit w set iff level-0 word [occ.(w)] <> 0 *)
  mutable popped_time : Time.t;
  mutable popped_act : int;  (* the fired event's [act] *)
  mutable fired : int;
      (* Pool slot of the last popped one-shot, or -1. Its closure stays
         in [oneshot] for the caller to run, and the record stays off the
         free list so no add can take the slot, until the next pop. *)
}

let create () =
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
    head = Array.make (far + 1) (-1);
    tail = Array.make (far + 1) (-1);
    occ = Array.make ((far lsr 5) + 1) 0;
    summary = 0;
    popped_time = Time.zero;
    popped_act = -1;
    fired = -1;
  }

let live t = t.live_count
let pool_size t = t.pool_len

(* --- actions -------------------------------------------------------- *)

let register t ~cls f =
  if cls < 0 then invalid_arg "Event_queue.register: negative class";
  if t.n_actions = Array.length t.actions then begin
    let cap = Int.max 8 (2 * t.n_actions) in
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
  let cap = Int.max 8 (2 * Array.length t.pool) in
  let data = Array.make cap (new_event (-1)) in
  Array.blit t.pool 0 data 0 t.pool_len;
  t.pool <- data;
  let fns = Array.make cap noop in
  Array.blit t.oneshot 0 fns 0 t.pool_len;
  t.oneshot <- fns

(* The pool's cold path: a record that has never been used. Out of line
   so [alloc], inlined into every schedule, carries only the free-list
   pop. *)
let[@inline never] fresh_event t =
  if t.pool_len = Array.length t.pool then grow_pool t;
  let ev = new_event t.pool_len in
  t.pool.(t.pool_len) <- ev;
  t.pool_len <- t.pool_len + 1;
  ev

let[@inline] alloc t =
  if t.free_head >= 0 then begin
    let ev = t.pool.(t.free_head) in
    t.free_head <- ev.next_free;
    ev.next_free <- -1;
    ev
  end
  else fresh_event t

(* A record is released exactly once, when it leaves the structure
   (fired or cancelled).
   The generation bump invalidates outstanding ids. Every field is an
   immediate, so this stores no pointer; a one-shot's closure was already
   dropped by [drop_oneshot]. *)
let[@inline] release t ev =
  ev.gen <- ev.gen + 1;
  ev.live <- false;
  ev.where <- loc_none;
  ev.next_ev <- -1;
  ev.prev_ev <- -1;
  ev.next_free <- t.free_head;
  t.free_head <- ev.idx

let[@inline] drop_oneshot t ev = if ev.act < 0 then t.oneshot.(ev.idx) <- noop

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

let[@inline] ctz m =
  ctz_table.((((m land (-m)) * debruijn) land 0xFFFFFFFF) lsr 27)

(* --- wheel buckets -------------------------------------------------- *)

let[@inline] mark t b =
  let w = b lsr 5 in
  let m = t.occ.(w) in
  if m = 0 && w < l0_words then t.summary <- t.summary lor (1 lsl w);
  t.occ.(w) <- m lor (1 lsl (b land 31))

let[@inline] unmark t b =
  let w = b lsr 5 in
  let m = t.occ.(w) land lnot (1 lsl (b land 31)) in
  t.occ.(w) <- m;
  if m = 0 && w < l0_words then t.summary <- t.summary land lnot (1 lsl w)

(* [a] sorts strictly before [b] in (key, seq) order: the queue's one
   ordering, kept by the level-0 buckets. *)
let[@inline] before a b =
  a.key_ns < b.key_ns || (a.key_ns = b.key_ns && a.seq < b.seq)

(* Link [ev] into bucket [b]. A level-0 bucket ([b < l0_slots]) is kept
   in ascending (key, seq) order, so its head is the bucket's minimum: an
   event that sorts after the tail appends, anything else walks back from
   the tail to its spot. Direct adds carry the highest seq ever issued,
   so they only walk past residents of the same tick with later keys.
   Higher-level buckets and [far] are plain appends: a cascade or a far
   jump re-files every resident anyway, so their order is never
   observed. *)
let[@inline] bucket_insert t ev b =
  let pool = t.pool in
  ev.where <- b;
  let tl = t.tail.(b) in
  if tl < 0 then begin
    ev.prev_ev <- -1;
    ev.next_ev <- -1;
    t.head.(b) <- ev.idx;
    t.tail.(b) <- ev.idx;
    (mark [@inlined]) t b
  end
  else if b >= l0_slots || (before [@inlined]) pool.(tl) ev then begin
    ev.prev_ev <- tl;
    ev.next_ev <- -1;
    pool.(tl).next_ev <- ev.idx;
    t.tail.(b) <- ev.idx
  end
  else begin
    let p = ref pool.(tl).prev_ev in
    while !p >= 0 && not ((before [@inlined]) pool.(!p) ev) do
      p := pool.(!p).prev_ev
    done;
    let prev = !p in
    let next = if prev < 0 then t.head.(b) else pool.(prev).next_ev in
    ev.prev_ev <- prev;
    ev.next_ev <- next;
    pool.(next).prev_ev <- ev.idx;
    if prev < 0 then t.head.(b) <- ev.idx else pool.(prev).next_ev <- ev.idx
  end

let[@inline] bucket_unlink t ev =
  let b = ev.where in
  let pool = t.pool in
  if ev.prev_ev >= 0 then pool.(ev.prev_ev).next_ev <- ev.next_ev
  else t.head.(b) <- ev.next_ev;
  if ev.next_ev >= 0 then pool.(ev.next_ev).prev_ev <- ev.prev_ev
  else t.tail.(b) <- ev.prev_ev;
  if t.head.(b) < 0 then (unmark [@inlined]) t b

(* File a live event whose key shares the current position's horizon
   block. With x = (key lxor pos) lsr tick_bits, keys within [pos]'s own
   32.8 us level-0 span (x < 2^10) land in level 0, bucket
   [(key lsr 5) land 1023]; otherwise the level is the highest 5-bit
   block above bit 15 where key and pos differ, and the slot is the key's
   bits at that level. Written as a compare chain: branch-predictable, no
   loop, no table. [x < 2^30] always holds, since [file] sends keys
   outside the position's horizon block to [far]. *)
let[@inline] wheel_insert t ev =
  let key = ev.key_ns in
  let x = (key lxor t.pos) lsr tick_bits in
  let b =
    if x < 0x400 then (key lsr tick_bits) land l0_mask
    else begin
      let l =
        if x < 0x8000 then 0
        else if x < 0x100000 then 1
        else if x < 0x2000000 then 2
        else 3
      in
      let s = (key lsr (l1_shift + (l * slot_bits))) land slot_mask in
      l0_slots + (l lsl slot_bits) + s
    end
  in
  (bucket_insert [@inlined]) t ev b

(* --- scheduling ----------------------------------------------------- *)

let[@inline] file t ev =
  if ev.key_ns lsr horizon_bits = t.pos lsr horizon_bits then
    (wheel_insert [@inlined]) t ev
  else (bucket_insert [@inlined]) t ev far

(* Raisers that build a message stay out of line: the inlined callers
   keep a compare and a call, not the exception's construction. *)
let[@inline never] before_position () =
  invalid_arg "Event_queue.add: time before the queue's position"

let[@inline never] unregistered () =
  invalid_arg "Event_queue.add_action: not a registered action"

(* Allocate, stamp and file a record carrying [act]; returns it so the
   one-shot entry points can fill the closure slot. An add before the
   position is refused before it takes a record, so it leaves the queue
   as it was. *)
let[@inline] add_act t ~time act =
  let key = Time.to_int_ns time in
  if key < t.pos then before_position ();
  let ev = (alloc [@inlined]) t in
  ev.key_ns <- key;
  ev.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  ev.act <- act;
  ev.live <- true;
  t.live_count <- t.live_count + 1;
  (file [@inlined]) t ev;
  ev

let[@inline] add_action t ~time a =
  if a < 0 || a >= t.n_actions then unregistered ();
  id_of ((add_act [@inlined]) t ~time a)

(* [~cls] is a required label (not optional): an optional int argument
   would box [Some cls] on every call. *)
let add_cls t ~time ~cls action =
  if cls < 0 then invalid_arg "Event_queue.add_cls: negative class";
  let ev = add_act t ~time (-1 - cls) in
  t.oneshot.(ev.idx) <- action;
  id_of ev

let add t ~time action = add_cls t ~time ~cls:0 action

let[@inline] cancel t id =
  let idx = id lsr gen_bits in
  if idx < 0 || idx >= t.pool_len then false
  else begin
    let ev = t.pool.(idx) in
    if ev.live && ev.gen land gen_mask = id land gen_mask then begin
      t.live_count <- t.live_count - 1;
      (drop_oneshot [@inlined]) t ev;
      (* Unlink and recycle on the spot: the O(1) cancel is the point of
         the wheel for rearm-heavy timers. *)
      (bucket_unlink [@inlined]) t ev;
      (release [@inlined]) t ev;
      true
    end
    else false
  end

(* --- the wheel's virtual clock -------------------------------------- *)

(* Pull the contents of bucket [b] (level >= 1) back through [file]: with
   [pos] just advanced into the bucket's span, every resident re-files at
   a strictly lower level, and those reaching level 0 take their
   (key, seq) place via [bucket_insert]'s tail walk. *)
let[@inline] cascade t b =
  let pool = t.pool in
  let cur = ref t.head.(b) in
  t.head.(b) <- -1;
  t.tail.(b) <- -1;
  (unmark [@inlined]) t b;
  while !cur >= 0 do
    let ev = pool.(!cur) in
    cur := ev.next_ev;
    (wheel_insert [@inlined]) t ev
  done

(* First occupied level-0 bucket at or after [pos]'s tick, or -1: the
   word holding that tick masked below it, else the summary word's next
   non-zero word. Level-0 residents share [pos]'s bits from 15 up and are
   never earlier than [pos], so no bucket below [pos]'s tick is occupied
   and no wraparound case exists. *)
let[@inline] next_l0 t =
  let s = (t.pos lsr tick_bits) land l0_mask in
  let w = s lsr 5 in
  let m = t.occ.(w) land (-1 lsl (s land 31)) in
  if m <> 0 then (w lsl 5) lor (ctz [@inlined]) m
  else begin
    let sm = t.summary land (-1 lsl (w + 1)) in
    if sm = 0 then -1
    else
      let w = (ctz [@inlined]) sm in
      (w lsl 5) lor (ctz [@inlined]) t.occ.(w)
  end

(* [wheel_min]'s answers besides a pool index. *)
let not_due = -1
let wheel_empty = -2
let searching = -3

(* Pool index of the wheel's earliest event — the head of the first
   occupied level-0 bucket at or after [pos]'s tick — if its key is at or
   before [stop_ns]; else [not_due], or [wheel_empty]. Advances [pos] to
   that event's key, cascading any higher-level bucket the position
   crosses into; skipped slots are provably empty, so the advance never
   loses an event. A head past [stop_ns], or an upper bucket whose span
   starts past it, leaves [pos] where it is: the position never passes
   the deadline, so a caller may still add anywhere from its own clock
   on. Setting [pos] to the key itself, not to its tick's start, keeps
   every wheel resident at or after [pos]. Each iteration either returns
   or strictly descends a level, bounding the loop at [upper + 1]
   steps. *)
let[@inline] wheel_min t stop_ns =
  let result = ref searching in
  while !result = searching do
    let b = (next_l0 [@inlined]) t in
    if b >= 0 then begin
      let h = t.head.(b) in
      let key = t.pool.(h).key_ns in
      if key > stop_ns then result := not_due
      else begin
        t.pos <- key;
        result := h
      end
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
        if m <> 0 then found := (ctz [@inlined]) m else incr l
      done;
      if !found < 0 then result := wheel_empty
      else begin
        (* The bucket's span: keep the bits above it, set its slot, zero
           everything below. *)
        let shift = l1_shift + (slot_bits * !l) in
        let above = shift + slot_bits in
        let start = ((t.pos lsr above) lsl above) lor (!found lsl shift) in
        if start > stop_ns then result := not_due
        else begin
          t.pos <- start;
          (cascade [@inlined]) t (l0_slots + (!l lsl slot_bits) + !found)
        end
      end
    end
  done;
  !result

(* --- pop ------------------------------------------------------------ *)

(* The wheel is empty: if the earliest [far] key is due, jump the
   position to it and re-file that key's whole horizon block into the
   wheel, where level-0 buckets take each arrival to its (key, seq)
   place. The jump cannot skip a wheel event, and every far key lies in
   a later block than [pos], so a scan for the minimum suffices; later
   blocks stay in [far]. Out of line, so [pop_until] holds one inlined
   copy of [wheel_min], on its hot path. *)
let[@inline never] far_min t stop_ns =
  let pool = t.pool in
  let cur = ref t.head.(far) in
  let min = ref max_int in
  while !cur >= 0 do
    let ev = pool.(!cur) in
    if ev.key_ns < !min then min := ev.key_ns;
    cur := ev.next_ev
  done;
  if t.head.(far) < 0 || !min > stop_ns then not_due
  else begin
    t.pos <- !min;
    let block = !min lsr horizon_bits in
    cur := t.head.(far);
    while !cur >= 0 do
      let ev = pool.(!cur) in
      cur := ev.next_ev;
      if ev.key_ns lsr horizon_bits = block then begin
        (bucket_unlink [@inlined]) t ev;
        (wheel_insert [@inlined]) t ev
      end
    done;
    (wheel_min [@inlined]) t stop_ns
  end

(* One walk finds the earliest event and fires it if it is due, so a
   run-until loop pays for [wheel_min] once per event. The previous
   pop's one-shot, which the caller has run by now, is let go first: its
   closure dropped and its record released. A registered action's pop
   stores no pointer at all. *)
let pop_until t stop_ns =
  let f = t.fired in
  if f >= 0 then begin
    t.fired <- -1;
    let ev = t.pool.(f) in
    (drop_oneshot [@inlined]) t ev;
    (release [@inlined]) t ev
  end;
  let w = (wheel_min [@inlined]) t stop_ns in
  let w = if w = wheel_empty then far_min t stop_ns else w in
  if w < 0 then false
  else begin
    let ev = t.pool.(w) in
    (bucket_unlink [@inlined]) t ev;
    t.live_count <- t.live_count - 1;
    t.popped_time <- Time.of_int_ns ev.key_ns;
    t.popped_act <- ev.act;
    if ev.act >= 0 then (release [@inlined]) t ev
    else begin
      (* Fired: no longer live, so its id already fails [cancel]. *)
      ev.live <- false;
      t.fired <- ev.idx
    end;
    true
  end

let pop t = pop_until t max_int

let[@inline] popped_time t = t.popped_time

let[@inline] popped_action t =
  if t.popped_act >= 0 then t.actions.(t.popped_act)
  else if t.fired >= 0 then t.oneshot.(t.fired)
  else noop

let popped_cls t =
  if t.popped_act >= 0 then t.action_cls.(t.popped_act) else -1 - t.popped_act
