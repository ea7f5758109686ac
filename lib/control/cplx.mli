(** Complex-number helpers over [Stdlib.Complex]. *)

type t = Complex.t = { re : float; im : float }

val make : float -> float -> t
val re : float -> t
val im : float -> t
val zero : t
val one : t

val ( +: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( /: ) : t -> t -> t

val scale : float -> t -> t
val neg : t -> t
val inv : t -> t
val exp : t -> t
val modulus : t -> float

val dist : t -> t -> float
(** Euclidean distance. *)

val is_finite : t -> bool
val to_string : t -> string
