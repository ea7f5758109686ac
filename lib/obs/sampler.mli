(** Periodic sampling loop on simulation time.

    The one fixed-period polling pattern the repo needs: call [f now] at
    the current simulation time and then every [period] until the
    {e next} tick would land after [stop_at]. The [stop_at] bound is
    mandatory — an unbounded self-rescheduling loop would keep the
    simulation alive forever. Ticks are scheduled with the
    {!Engine.Event_class.Sample} profiler tag. *)

val start :
  Engine.Sim.t ->
  period:Engine.Time.span ->
  stop_at:Engine.Time.t ->
  (Engine.Time.t -> unit) ->
  unit
(** [start sim ~period ~stop_at f] calls [f] synchronously at the
    current time [t0], then at [t0 + k * period] for every [k] with
    [t0 + k * period <= stop_at]. When [stop_at] precedes [t0 + period]
    the synchronous call is the only one.
    @raise Invalid_argument if [period <= 0]. *)
