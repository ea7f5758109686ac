type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a option array;
  mutable size : int;
}

let create ?(capacity = 64) ~cmp () =
  let capacity = Int.max capacity 1 in
  { cmp; data = Array.make capacity None; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

(* Live slots always hold [Some _]; the heap never reads past [size]. *)
let get h i =
  match h.data.(i) with
  | Some x -> x
  | None -> invalid_arg "Heap: empty slot below size"

let grow h =
  let data = Array.make (2 * Array.length h.data) None in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp (get h i) (get h parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let smallest = ref i in
  if l < h.size && h.cmp (get h l) (get h !smallest) < 0 then smallest := l;
  if r < h.size && h.cmp (get h r) (get h !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h x =
  if h.size = Array.length h.data then grow h;
  h.data.(h.size) <- Some x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let root = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    (* Release the slot so the GC can reclaim the popped element. *)
    h.data.(h.size) <- None;
    if h.size > 0 then sift_down h 0;
    root
  end

let pop_exn h =
  match pop h with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let clear h =
  Array.fill h.data 0 h.size None;
  h.size <- 0

let to_sorted_list h =
  let copy = { h with data = Array.copy h.data } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []

let iter_unordered f h =
  for i = 0 to h.size - 1 do
    f (get h i)
  done
