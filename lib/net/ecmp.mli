(** Equal-cost multi-path (ECMP) port selection.

    A {!group} is an immutable set of switch port indices plus a salt.
    {!select} deterministically maps a flow's identity (src host id, dst
    host id, flow id — the simulator's 5-tuple) to one port of the set:
    the same tuple always gets the same port, so a flow's packets never
    reorder across paths, while distinct flows spread uniformly. Salts
    come from the simulation's {!Engine.Rng} stream (drawn by the
    topology builder, one per switch), which keeps runs bit-identical
    for a given seed and decorrelates the hash across switches.

    Selection is allocation-free integer arithmetic — this module is on
    the per-packet forwarding path of every multi-path switch (dtlint
    R14 hot root). *)

type group

val make_group : salt:int64 -> ports:int array -> group
(** The port array is copied; later caller mutation cannot affect the
    group. @raise Invalid_argument if [ports] is empty or contains a
    negative index. *)

val select : group -> src:int -> dst:int -> flow:int -> int
(** The port (an element of the group's port set) this flow takes. Pure:
    depends only on the group and the three ids. *)

