(* Monomorphic int ring-buffer FIFO. The generic {!Ring} stores boxed
   ['a] elements, so every [push] of a heap value pays the caml_modify
   write barrier; with packets now immediate ints (pooled SoA handles,
   see [Net.Packet]) the switch-queue and in-flight FIFOs can use plain
   int stores instead. Empty slots hold [min_int] — a real value, not an
   [Obj.magic] placeholder, so there is nothing for the GC to misread. *)

type t = {
  mutable data : int array;
  mutable head : int;  (* index of the front element *)
  mutable len : int;
}

let rec pow2 n k = if k >= n then k else pow2 n (2 * k)

let create ?(capacity = 16) () =
  let capacity = pow2 (Int.max capacity 1) 1 in
  { data = Array.make capacity min_int; head = 0; len = 0 }

let is_empty t = t.len = 0

(* Out of line: [push] is inlined into every enqueue and link hand-off,
   and the copy is its cold path. *)
let[@inline never] grow t =
  let n = Array.length t.data in
  let data = Array.make (2 * n) min_int in
  (* Unwrap: front segment [head, n), then the wrapped prefix. *)
  let front = n - t.head in
  Array.blit t.data t.head data 0 front;
  Array.blit t.data 0 data front t.head;
  t.data <- data;
  t.head <- 0

let[@inline] push t x =
  if t.len = Array.length t.data then grow t;
  t.data.((t.head + t.len) land (Array.length t.data - 1)) <- x;
  t.len <- t.len + 1

let[@inline] pop t =
  if t.len = 0 then raise Not_found;
  let x = t.data.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.data - 1);
  t.len <- t.len - 1;
  x
