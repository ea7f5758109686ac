module Time = Engine.Time

type event =
  | Enqueue of { flow : int; occ_bytes : int; occ_pkts : int }
  | Dequeue of { flow : int; occ_bytes : int; occ_pkts : int }
  | Drop of { flow : int; occ_bytes : int }
  | Mark of { flow : int; occ_bytes : int; occ_pkts : int }
  | Mark_state_flip of { marking : bool; occ_bytes : int }
  | Cwnd_cut of {
      flow : int;
      cwnd_before : float;
      cwnd_after : float;
      alpha : float;
    }
  | Fast_retransmit of { flow : int; snd_una : int }
  | Rto of { flow : int; snd_una : int; timeouts : int }
  | Flow_start of { flow : int }
  | Flow_done of { flow : int; segments : int }
  | Link_down of { occ_bytes : int }
  | Link_up of { occ_bytes : int }
  | Pkt_lost of { flow : int; size : int }
  | Mark_suppressed of { occ_bytes : int; occ_pkts : int }
  | Rate_changed of { rate_bps : float }
  | Pool_reject of {
      flow : int;
      occ_bytes : int;
      pool_used : int;
      limit_bytes : int;
    }
  | Pool_high_water of { pool_used : int }
  | No_route_drop of { flow : int; dst : int }

type record = { time : Time.t; component : string; event : event }

type cls =
  | C_enqueue
  | C_dequeue
  | C_drop
  | C_mark
  | C_mark_state_flip
  | C_cwnd_cut
  | C_fast_retransmit
  | C_rto
  | C_flow_start
  | C_flow_done
  | C_link_down
  | C_link_up
  | C_pkt_lost
  | C_mark_suppressed
  | C_rate_changed
  | C_pool_reject
  | C_pool_high_water
  | C_no_route_drop

let all_classes =
  [
    C_enqueue;
    C_dequeue;
    C_drop;
    C_mark;
    C_mark_state_flip;
    C_cwnd_cut;
    C_fast_retransmit;
    C_rto;
    C_flow_start;
    C_flow_done;
    C_link_down;
    C_link_up;
    C_pkt_lost;
    C_mark_suppressed;
    C_rate_changed;
    C_pool_reject;
    C_pool_high_water;
    C_no_route_drop;
  ]

let[@inline] cls_index = function
  | C_enqueue -> 0
  | C_dequeue -> 1
  | C_drop -> 2
  | C_mark -> 3
  | C_mark_state_flip -> 4
  | C_cwnd_cut -> 5
  | C_fast_retransmit -> 6
  | C_rto -> 7
  | C_flow_start -> 8
  | C_flow_done -> 9
  | C_link_down -> 10
  | C_link_up -> 11
  | C_pkt_lost -> 12
  | C_mark_suppressed -> 13
  | C_rate_changed -> 14
  | C_pool_reject -> 15
  | C_pool_high_water -> 16
  | C_no_route_drop -> 17

let cls_of_event = function
  | Enqueue _ -> C_enqueue
  | Dequeue _ -> C_dequeue
  | Drop _ -> C_drop
  | Mark _ -> C_mark
  | Mark_state_flip _ -> C_mark_state_flip
  | Cwnd_cut _ -> C_cwnd_cut
  | Fast_retransmit _ -> C_fast_retransmit
  | Rto _ -> C_rto
  | Flow_start _ -> C_flow_start
  | Flow_done _ -> C_flow_done
  | Link_down _ -> C_link_down
  | Link_up _ -> C_link_up
  | Pkt_lost _ -> C_pkt_lost
  | Mark_suppressed _ -> C_mark_suppressed
  | Rate_changed _ -> C_rate_changed
  | Pool_reject _ -> C_pool_reject
  | Pool_high_water _ -> C_pool_high_water
  | No_route_drop _ -> C_no_route_drop

let cls_name = function
  | C_enqueue -> "enqueue"
  | C_dequeue -> "dequeue"
  | C_drop -> "drop"
  | C_mark -> "mark"
  | C_mark_state_flip -> "mark_state_flip"
  | C_cwnd_cut -> "cwnd_cut"
  | C_fast_retransmit -> "fast_retransmit"
  | C_rto -> "rto"
  | C_flow_start -> "flow_start"
  | C_flow_done -> "flow_done"
  | C_link_down -> "link_down"
  | C_link_up -> "link_up"
  | C_pkt_lost -> "pkt_lost"
  | C_mark_suppressed -> "mark_suppressed"
  | C_rate_changed -> "rate_changed"
  | C_pool_reject -> "pool_reject"
  | C_pool_high_water -> "pool_high_water"
  | C_no_route_drop -> "no_route_drop"

let cls_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "enqueue" -> Some C_enqueue
  | "dequeue" -> Some C_dequeue
  | "drop" -> Some C_drop
  | "mark" -> Some C_mark
  | "mark_state_flip" -> Some C_mark_state_flip
  | "cwnd_cut" -> Some C_cwnd_cut
  | "fast_retransmit" -> Some C_fast_retransmit
  | "rto" -> Some C_rto
  | "flow_start" -> Some C_flow_start
  | "flow_done" -> Some C_flow_done
  | "link_down" -> Some C_link_down
  | "link_up" -> Some C_link_up
  | "pkt_lost" -> Some C_pkt_lost
  | "mark_suppressed" -> Some C_mark_suppressed
  | "rate_changed" -> Some C_rate_changed
  | "pool_reject" -> Some C_pool_reject
  | "pool_high_water" -> Some C_pool_high_water
  | "no_route_drop" -> Some C_no_route_drop
  | _ -> None

(* --- serialization --- *)

let record_to_json r =
  let fields =
    match r.event with
    | Enqueue { flow; occ_bytes; occ_pkts } | Dequeue { flow; occ_bytes; occ_pkts }
      ->
        [
          ("flow", Json.Int flow);
          ("occ_bytes", Json.Int occ_bytes);
          ("occ_pkts", Json.Int occ_pkts);
        ]
    | Drop { flow; occ_bytes } ->
        [ ("flow", Json.Int flow); ("occ_bytes", Json.Int occ_bytes) ]
    | Mark { flow; occ_bytes; occ_pkts } ->
        [
          ("flow", Json.Int flow);
          ("occ_bytes", Json.Int occ_bytes);
          ("occ_pkts", Json.Int occ_pkts);
        ]
    | Mark_state_flip { marking; occ_bytes } ->
        [ ("marking", Json.Bool marking); ("occ_bytes", Json.Int occ_bytes) ]
    | Cwnd_cut { flow; cwnd_before; cwnd_after; alpha } ->
        [
          ("flow", Json.Int flow);
          ("cwnd_before", Json.Float cwnd_before);
          ("cwnd_after", Json.Float cwnd_after);
          ("alpha", Json.Float alpha);
        ]
    | Fast_retransmit { flow; snd_una } ->
        [ ("flow", Json.Int flow); ("snd_una", Json.Int snd_una) ]
    | Rto { flow; snd_una; timeouts } ->
        [
          ("flow", Json.Int flow);
          ("snd_una", Json.Int snd_una);
          ("timeouts", Json.Int timeouts);
        ]
    | Flow_start { flow } -> [ ("flow", Json.Int flow) ]
    | Flow_done { flow; segments } ->
        [ ("flow", Json.Int flow); ("segments", Json.Int segments) ]
    | Link_down { occ_bytes } | Link_up { occ_bytes } ->
        [ ("occ_bytes", Json.Int occ_bytes) ]
    | Pkt_lost { flow; size } ->
        [ ("flow", Json.Int flow); ("size", Json.Int size) ]
    | Mark_suppressed { occ_bytes; occ_pkts } ->
        [ ("occ_bytes", Json.Int occ_bytes); ("occ_pkts", Json.Int occ_pkts) ]
    | Rate_changed { rate_bps } -> [ ("rate_bps", Json.Float rate_bps) ]
    | Pool_reject { flow; occ_bytes; pool_used; limit_bytes } ->
        [
          ("flow", Json.Int flow);
          ("occ_bytes", Json.Int occ_bytes);
          ("pool_used", Json.Int pool_used);
          ("limit_bytes", Json.Int limit_bytes);
        ]
    | Pool_high_water { pool_used } -> [ ("pool_used", Json.Int pool_used) ]
    | No_route_drop { flow; dst } ->
        [ ("flow", Json.Int flow); ("dst", Json.Int dst) ]
  in
  Json.Obj
    (("t_ns", Json.Int (Time.to_int_ns r.time))
    :: ("event", Json.String (cls_name (cls_of_event r.event)))
    :: ("component", Json.String r.component)
    :: fields)

let record_of_json j =
  let ( let* ) = Result.bind in
  let prefix = "trace record" in
  let int name = Json.int prefix name j in
  let num name = Json.number prefix name j in
  let bool name = Json.bool prefix name j in
  let str name = Json.string prefix name j in
  let* t_ns = int "t_ns" in
  let* ev = str "event" in
  let* component = str "component" in
  let* event =
    match ev with
    | "enqueue" ->
        let* flow = int "flow" in
        let* occ_bytes = int "occ_bytes" in
        let* occ_pkts = int "occ_pkts" in
        Ok (Enqueue { flow; occ_bytes; occ_pkts })
    | "dequeue" ->
        let* flow = int "flow" in
        let* occ_bytes = int "occ_bytes" in
        let* occ_pkts = int "occ_pkts" in
        Ok (Dequeue { flow; occ_bytes; occ_pkts })
    | "drop" ->
        let* flow = int "flow" in
        let* occ_bytes = int "occ_bytes" in
        Ok (Drop { flow; occ_bytes })
    | "mark" ->
        let* flow = int "flow" in
        let* occ_bytes = int "occ_bytes" in
        let* occ_pkts = int "occ_pkts" in
        Ok (Mark { flow; occ_bytes; occ_pkts })
    | "mark_state_flip" ->
        let* marking = bool "marking" in
        let* occ_bytes = int "occ_bytes" in
        Ok (Mark_state_flip { marking; occ_bytes })
    | "cwnd_cut" ->
        let* flow = int "flow" in
        let* cwnd_before = num "cwnd_before" in
        let* cwnd_after = num "cwnd_after" in
        let* alpha = num "alpha" in
        Ok (Cwnd_cut { flow; cwnd_before; cwnd_after; alpha })
    | "fast_retransmit" ->
        let* flow = int "flow" in
        let* snd_una = int "snd_una" in
        Ok (Fast_retransmit { flow; snd_una })
    | "rto" ->
        let* flow = int "flow" in
        let* snd_una = int "snd_una" in
        let* timeouts = int "timeouts" in
        Ok (Rto { flow; snd_una; timeouts })
    | "flow_start" ->
        let* flow = int "flow" in
        Ok (Flow_start { flow })
    | "flow_done" ->
        let* flow = int "flow" in
        let* segments = int "segments" in
        Ok (Flow_done { flow; segments })
    | "link_down" ->
        let* occ_bytes = int "occ_bytes" in
        Ok (Link_down { occ_bytes })
    | "link_up" ->
        let* occ_bytes = int "occ_bytes" in
        Ok (Link_up { occ_bytes })
    | "pkt_lost" ->
        let* flow = int "flow" in
        let* size = int "size" in
        Ok (Pkt_lost { flow; size })
    | "mark_suppressed" ->
        let* occ_bytes = int "occ_bytes" in
        let* occ_pkts = int "occ_pkts" in
        Ok (Mark_suppressed { occ_bytes; occ_pkts })
    | "rate_changed" ->
        let* rate_bps = num "rate_bps" in
        Ok (Rate_changed { rate_bps })
    | "pool_reject" ->
        let* flow = int "flow" in
        let* occ_bytes = int "occ_bytes" in
        let* pool_used = int "pool_used" in
        let* limit_bytes = int "limit_bytes" in
        Ok (Pool_reject { flow; occ_bytes; pool_used; limit_bytes })
    | "pool_high_water" ->
        let* pool_used = int "pool_used" in
        Ok (Pool_high_water { pool_used })
    | "no_route_drop" ->
        let* flow = int "flow" in
        let* dst = int "dst" in
        Ok (No_route_drop { flow; dst })
    | other -> Error (Printf.sprintf "trace record: unknown event %S" other)
  in
  Ok { time = Time.of_ns (Time.span_of_int_ns t_ns); component; event }

(* --- ring buffer --- *)

let dummy_record =
  { time = Time.zero; component = ""; event = Flow_start { flow = -1 } }

type ring = {
  buf : record array;
  cap : int;
  mutable next : int;
  mutable len : int;
  mutable total : int;
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Obs.Trace.ring: capacity must be positive";
  {
    buf = Array.make capacity dummy_record;
    cap = capacity;
    next = 0;
    len = 0;
    total = 0;
  }

let ring_push r x =
  r.buf.(r.next) <- x;
  r.next <- (r.next + 1) mod r.cap;
  if r.len < r.cap then r.len <- r.len + 1;
  r.total <- r.total + 1

let ring_length r = r.len
let ring_total r = r.total

let ring_records r =
  List.init r.len (fun i ->
      r.buf.(((r.next - r.len + i) mod r.cap + r.cap) mod r.cap))

(* --- sinks and tracers --- *)

type sink =
  | Null
  | Ring of ring
  | Jsonl of out_channel
  | Fn of (record -> unit)

(* Unboxed consumer of the four occupancy classes ([C_enqueue],
   [C_dequeue], [C_mark], [C_drop]): every argument is immediate, so
   delivering an event through it allocates nothing. *)
type occ_handler =
  cls ->
  time:Time.t ->
  component:string ->
  flow:int ->
  occ_bytes:int ->
  occ_pkts:int ->
  unit

type cut_handler = time:Time.t -> component:string -> flow:int -> unit

type flip_handler =
  time:Time.t -> component:string -> marking:bool -> occ_bytes:int -> unit

type target =
  | Sink of sink
  | Handler of {
      occ : occ_handler;
      cut : cut_handler;
      flip : flip_handler;
      other : record -> unit;
    }
  | Tee of t * t

(* [record_mask]: the classes some [Ring], [Jsonl] or [Fn] sink below
   accepts, i.e. those for which an emission builds a record. *)
and t = { mask : int; record_mask : int; target : target }

let full_mask = (1 lsl List.length all_classes) - 1
let mask_of = List.fold_left (fun m c -> m lor (1 lsl cls_index c)) 0
let null = { mask = 0; record_mask = 0; target = Sink Null }
let class_mask classes =
  match classes with None -> full_mask | Some cs -> mask_of cs

let create ?classes sink =
  let mask = class_mask classes in
  let record_mask = match sink with Null -> 0 | _ -> mask in
  { mask; record_mask; target = Sink sink }

let create_handler ?classes ~occ ~cut ~flip other =
  {
    mask = class_mask classes;
    record_mask = 0;
    target = Handler { occ; cut; flip; other };
  }

let[@inline] enabled t c = t.mask land (1 lsl (cls_index [@inlined]) c) <> 0

let dispatch sink r =
  match sink with
  | Null -> ()
  | Ring ring -> ring_push ring r
  | Jsonl oc ->
      Json.write oc (record_to_json r);
      output_char oc '\n'
  | Fn f -> f r

let rec emit t r =
  if enabled t (cls_of_event r.event) then
    match t.target with
    | Sink sink -> dispatch sink r
    | Handler { other; _ } -> other r
    | Tee (a, b) ->
        emit a r;
        emit b r

let occ_record cls ~time ~component ~flow ~occ_bytes ~occ_pkts =
  let event =
    match cls with
    | C_enqueue -> Enqueue { flow; occ_bytes; occ_pkts }
    | C_dequeue -> Dequeue { flow; occ_bytes; occ_pkts }
    | C_mark -> Mark { flow; occ_bytes; occ_pkts }
    | _ (* C_drop: [emit_occ] rejected every other class *) ->
        Drop { flow; occ_bytes }
  in
  { time; component; event }

(* Physical sentinel for "no record built yet": a tee threads the
   record the first record-consuming branch built through to the
   others, so one emission builds at most one record, and none at all
   when every enabled branch is a handler (or [Null]). *)
let no_record = { dummy_record with component = "" }

let rec occ_go t cls ~time ~component ~flow ~occ_bytes ~occ_pkts built =
  if not (enabled t cls) then built
  else
    match t.target with
    | Handler { occ; _ } ->
        occ cls ~time ~component ~flow ~occ_bytes ~occ_pkts;
        built
    | Tee (a, b) ->
        let built =
          occ_go a cls ~time ~component ~flow ~occ_bytes ~occ_pkts built
        in
        occ_go b cls ~time ~component ~flow ~occ_bytes ~occ_pkts built
    | Sink Null -> built
    | Sink sink ->
        let r =
          if built == no_record then
            occ_record cls ~time ~component ~flow ~occ_bytes ~occ_pkts
          else built
        in
        dispatch sink r;
        r

let emit_occ t cls ~time ~component ~flow ~occ_bytes ~occ_pkts =
  if cls_index cls > cls_index C_mark then
    invalid_arg ("Obs.Trace.emit_occ: not an occupancy class: " ^ cls_name cls);
  ignore
    (occ_go t cls ~time ~component ~flow ~occ_bytes ~occ_pkts no_record
      : record)

(* [emit_cut] and [emit_flip] walk the tracer as [occ_go] does. *)
let rec cut_go t ~time ~component ~flow ~cwnd_before ~cwnd_after ~alpha built =
  if not (enabled t C_cwnd_cut) then built
  else
    match t.target with
    | Handler { cut; _ } ->
        cut ~time ~component ~flow;
        built
    | Tee (a, b) ->
        let built =
          cut_go a ~time ~component ~flow ~cwnd_before ~cwnd_after ~alpha built
        in
        cut_go b ~time ~component ~flow ~cwnd_before ~cwnd_after ~alpha built
    | Sink Null -> built
    | Sink sink ->
        let r =
          if built == no_record then
            {
              time;
              component;
              event = Cwnd_cut { flow; cwnd_before; cwnd_after; alpha };
            }
          else built
        in
        dispatch sink r;
        r

(* The same walk when no sink takes the cut: only handlers are reached,
   and the floats are never passed. *)
let rec cut_handlers t ~time ~component ~flow =
  if enabled t C_cwnd_cut then
    match t.target with
    | Handler { cut; _ } -> cut ~time ~component ~flow
    | Tee (a, b) ->
        cut_handlers a ~time ~component ~flow;
        cut_handlers b ~time ~component ~flow
    | Sink _ -> ()

(* Inlined, so the caller's floats stay unboxed unless a sink builds a
   [Cwnd_cut] record from them. *)
let[@inline] emit_cut t ~time ~component ~flow ~cwnd_before ~cwnd_after ~alpha
    =
  if t.record_mask land (1 lsl (cls_index [@inlined]) C_cwnd_cut) = 0 then
    cut_handlers t ~time ~component ~flow
  else
    ignore
      (cut_go t ~time ~component ~flow ~cwnd_before ~cwnd_after ~alpha
         no_record
        : record)

let rec flip_go t ~time ~component ~marking ~occ_bytes built =
  if not (enabled t C_mark_state_flip) then built
  else
    match t.target with
    | Handler { flip; _ } ->
        flip ~time ~component ~marking ~occ_bytes;
        built
    | Tee (a, b) ->
        let built = flip_go a ~time ~component ~marking ~occ_bytes built in
        flip_go b ~time ~component ~marking ~occ_bytes built
    | Sink Null -> built
    | Sink sink ->
        let r =
          if built == no_record then
            { time; component; event = Mark_state_flip { marking; occ_bytes } }
          else built
        in
        dispatch sink r;
        r

let emit_flip t ~time ~component ~marking ~occ_bytes =
  ignore (flip_go t ~time ~component ~marking ~occ_bytes no_record : record)

let enabled_classes t = List.filter (enabled t) all_classes

(* The tee accepts the union of both masks and lets each branch
   re-filter on delivery, so a record flows to exactly the tracers
   whose class sets admit it. The union mask is computed at tee time;
   widening a branch's classes afterwards requires a new tee. *)
let tee a b =
  {
    mask = a.mask lor b.mask;
    record_mask = a.record_mask lor b.record_mask;
    target = Tee (a, b);
  }
