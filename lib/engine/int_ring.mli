(** Growable ring-buffer FIFO specialised to [int].

    Same discipline as the generic {!Ring}, minus the write barrier: int
    elements are immediate, so [push] is a plain array store — the right
    container for pooled handles (packet ids, event ids) on hot paths.
    Empty slots hold [min_int], a real value rather than an [Obj.magic]
    placeholder, and popped slots need no clearing (an int pins
    nothing). The buffer doubles when full and never shrinks. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty ring; [capacity] (default 16, rounded up to a power of two)
    pre-sizes the backing array. *)

val is_empty : t -> bool

val push : t -> int -> unit
(** Appends at the back. Amortised O(1), allocation-free unless the
    buffer must grow. *)

val pop : t -> int
(** Removes and returns the front element.
    @raise Not_found when empty. *)

val clear : t -> unit (* dtlint: test-only: reuse after reset *)
