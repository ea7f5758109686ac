(** Minimal JSON tree with a writer and a strict parser.

    Just enough JSON for {!Manifest} records and JSONL trace sinks — no
    dependency on an external JSON package (the container's toolchain is
    fixed). The writer emits round-trippable floats (shortest decimal that
    restores the same bits, always containing ['.'], ['e'] or ['E'] so a
    [Float] never reparses as an [Int]); non-finite floats degrade to
    [null] because JSON has no literal for them. The parser handles the
    full escape set including [\uXXXX] (encoded to UTF-8; surrogate pairs
    are not recombined). The typed field readers at the end are the one
    decoding vocabulary of every [of_json] in the library ({!Manifest},
    {!Trace}, {!Analyze}, [Fault.Plan], [Exp.Spec]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line rendering (no pretty-printing), valid JSON. *)

val write : out_channel -> t -> unit
(** [to_string] into a caller-owned channel (dtlint R4: the library never
    writes to stdout). *)

val parse : string -> (t, string) result
(** Strict parse of one complete JSON value; trailing non-whitespace input
    is an error. The error string carries a byte offset. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val equal : t -> t -> bool
(** Structural equality; floats compare by bit pattern (so [nan] equals
    itself and [0.] differs from [-0.]), object fields by order. *)

(** {1 Typed field readers}

    Strict decoders for one member of an object, shared by every
    [of_json] in the tree. The first argument is the caller's error
    prefix (["Spec.of_json"], ["manifest"], ...): a missing member reads
    [<prefix>: missing field "name"], a member of the wrong type
    [<prefix>: field "name" is not a <type>]. *)

val field : string -> string -> t -> (t, string) result
(** [field prefix name j] is member [name] of [j], of any type. *)

val int : string -> string -> t -> (int, string) result

val number : string -> string -> t -> (float, string) result
(** A [Float], or an [Int] read as a float. *)

val bool : string -> string -> t -> (bool, string) result

val string : string -> string -> t -> (string, string) result

val mistyped : string -> string -> string -> ('a, string) result
(** [mistyped prefix name what] is the readers' error for a member that
    is not a [what], for callers decoding a type of their own (a list,
    an int or null, ...). *)
