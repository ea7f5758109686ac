type t = {
  name : string;
  on_enqueue : bytes:int -> packets:int -> bool;
  on_dequeue : bytes:int -> packets:int -> unit;
  on_limit : limit_bytes:int -> unit;
}

let no_limit ~limit_bytes:_ = ()

let make ~name ?(on_limit = no_limit) ~on_enqueue ~on_dequeue () =
  { name; on_enqueue; on_dequeue; on_limit }

let suppress ~active ~on_suppress inner =
  let on_enqueue ~bytes ~packets =
    (* Always consult the inner policy first: stateful markers (DT-DCTCP
       hysteresis) must keep observing the queue even while
       their verdicts are being discarded — a degraded switch loses the
       marks, not the marker's state. *)
    let mark = inner.on_enqueue ~bytes ~packets in
    if mark && active () then begin
      on_suppress ~bytes ~packets;
      false
    end
    else mark
  in
  {
    name = inner.name ^ "+suppress";
    on_enqueue;
    on_dequeue = inner.on_dequeue;
    on_limit = inner.on_limit;
  }

let none () =
  make ~name:"none"
    ~on_enqueue:(fun ~bytes:_ ~packets:_ -> false)
    ~on_dequeue:(fun ~bytes:_ ~packets:_ -> ())
    ()
