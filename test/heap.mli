(** Imperative binary min-heap, the reference oracle the
    [Engine.Event_queue] properties compare their pop order against.

    Slots are ['a option], so the oracle needs no placeholder value and
    popped slots drop their element. *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
(** [create ~cmp ()] is an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Amortised O(log n). *)

val peek : 'a t -> 'a option
(** Minimum element, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. O(log n). *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructive; O(n log n). *)

val iter_unordered : ('a -> unit) -> 'a t -> unit
(** Iterates over elements in unspecified order. *)
