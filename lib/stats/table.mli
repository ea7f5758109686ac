(** ASCII tables for the benchmark harness.

    Every figure/table reproduction prints through this module so the bench
    output has one consistent, diffable format. *)

type align = Left | Right

type column

val column : ?align:align -> string -> column
(** A column with a header. Numbers usually read better right-aligned. *)

type t

val create : title:string -> columns:column list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the column count. *)

val to_string : t -> string
(** Renders with a title line, a header, and column-width padding. *)

val print : ?oc:out_channel -> t -> unit
(** Writes {!to_string} to [oc] (stdout) and flushes it. *)

val fmt_f : int -> float -> string
(** [fmt_f digits] is a fixed-point formatter, e.g. [fmt_f 2 3.14159 = "3.14"]. *)
