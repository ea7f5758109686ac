(** Wall-clock profiling — the only sanctioned wall-clock read site.

    dtlint rule R7 forbids [Sys.time] / [Unix.gettimeofday] / [Unix.time]
    everywhere outside [lib/obs]: a wall-clock read leaking into
    simulation logic would silently break determinism (same hazard family
    as R1's ambient [Random]). Code that legitimately needs elapsed real
    time — bench sections, dtsim throughput reporting — goes through this
    module. *)

val wall_clock : unit -> float
(** Seconds since the epoch ([Unix.gettimeofday]). Never feed this into
    simulation state. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] is [(f (), elapsed_seconds)]. *)
