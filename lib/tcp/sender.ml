module Sim = Engine.Sim
module Time = Engine.Time
module Timer = Engine.Timer

type config = {
  segment_bytes : int;
  initial_cwnd : float;
  dupack_threshold : int;
  min_rto : Time.span;
  max_rto : Time.span;
  initial_rto : Time.span;
  max_cwnd : float;
  sack : bool;
}

let default_config =
  {
    segment_bytes = 1500;
    initial_cwnd = 2.;
    dupack_threshold = 3;
    min_rto = Time.span_of_ms 200.;
    max_rto = Time.span_of_sec 60.;
    initial_rto = Time.span_of_sec 1.;
    max_cwnd = 1e9;
    sack = false;
  }

(* SACK recovery state: the SACKed sequences above [snd_una], and the
   holes already retransmitted in this recovery episode. Only a SACK
   sender has one; a non-SACK sender would never write either table. *)
type sack_board = {
  scoreboard : (int, unit) Hashtbl.t;
  rtx_done : (int, unit) Hashtbl.t;
}

type t = {
  sim : Sim.t;
  st : Net.Packet.store;
  host : Net.Host.t;
  peer : int;
  flow : int;
  tracer : Obs.Trace.t;
  component : string;  (* trace records' component, built once *)
  config : config;
  mutable cc : Cc.t;
  (* In segments. Both arrive boxed through [Cc.flow_api]'s [set_*]
     closures and leave boxed through its [get_*] closures, so they are
     stored boxed: a field holds the box [set_*] received (the clamps
     below return their argument), and a getter hands that box back
     without allocating. A flat float slot would box on every read. *)
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable snd_una : int;
  mutable snd_nxt : int;
  limit : int option;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  rtt : Rtt_estimator.t;
  mutable rto_timer : Timer.t option;
  (* One in-flight RTT sample, flattened from [(int * Time.t) option] so
     (re)starting a sample does not allocate; [sample_seq < 0] = none. *)
  mutable sample_seq : int;
  mutable sample_sent : Time.t;
  sack_board : sack_board option;  (* [Some] iff [config.sack] *)
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  mutable ece_acks : int;
  mutable completed_at : Time.t option;
  on_complete : unit -> unit;
  mutable started : bool;
}

let dummy_cc =
  {
    Cc.on_ack = (fun ~newly_acked:_ ~ece:_ ~snd_una:_ ~snd_nxt:_ -> ());
    on_fast_retransmit = (fun () -> ());
    on_timeout = (fun () -> ());
    alpha = [||];
  }

(* The window clamps, written as comparisons: [Float.min] and
   [Float.max] call the C [signbit] on every use. Each gives the float
   its [Float] form gives, for every input, NaNs and signed zeros
   included. [Float.max x 1.] is [1.] exactly when [x < 1.], since 1 is
   neither zero nor NaN. *)
let at_least_one x = if x < 1. then 1. else x

(* [Float.min (Float.max c 1.) config.max_cwnd]. Past the first clamp
   [c] is at least 1 or NaN, so for a non-NaN [c] no signed zero can
   tie and the smaller (or a NaN [max_cwnd]) wins. Which of two NaNs
   [Float.min] returns depends on their signs, so a NaN [c] takes the
   library call. *)
let clamp_cwnd config c =
  let c = at_least_one c in
  let m = config.max_cwnd in
  if m > c then c else if Float.is_nan c then Float.min c m else m

let emit t event =
  Obs.Trace.emit t.tracer
    {
      Obs.Trace.time = Sim.now t.sim;
      component = t.component;
      event;
    }

let[@inline] effective_window t = Int.max 1 (int_of_float t.cwnd)

let[@inline] outstanding t = t.snd_nxt - t.snd_una

let completed t = match t.completed_at with None -> false | Some _ -> true

let[@inline never] no_timer () = invalid_arg "Sender: timer not initialised"

let[@inline] rto_timer t =
  match t.rto_timer with Some timer -> timer | None -> no_timer ()

let[@inline] arm_rto t =
  (Timer.set [@inlined]) ((rto_timer [@inlined]) t)
    ~after:(Rtt_estimator.rto t.rtt)

let send_segment t ~seq ~retransmission =
  let pkt =
    (Segment.data [@inlined]) t.st ~src:(Net.Host.id t.host) ~dst:t.peer ~flow:t.flow
      ~size:t.config.segment_bytes ~ecn:Net.Packet.Ect ~seq
  in
  if retransmission then begin
    t.retransmissions <- t.retransmissions + 1;
    (* Karn's rule: a retransmission at or below the sampled sequence
       invalidates the sample. *)
    if t.sample_seq >= 0 && seq <= t.sample_seq then t.sample_seq <- -1
  end
  else if t.sample_seq < 0 && seq >= t.recover then begin
    (* Sequences below [recover] may be go-back-N resends of data already
       transmitted once; Karn's rule forbids timing those. *)
    t.sample_seq <- seq;
    t.sample_sent <- Sim.now t.sim
  end;
  Net.Host.send t.host pkt;
  if not (Timer.is_pending ((rto_timer [@inlined]) t)) then
    (arm_rto [@inlined]) t

let pump t =
  if t.started && not (completed t) then begin
    let window_limit = t.snd_una + (effective_window [@inlined]) t in
    let data_limit =
      match t.limit with Some n -> n | None -> max_int
    in
    while t.snd_nxt < window_limit && t.snd_nxt < data_limit do
      send_segment t ~seq:t.snd_nxt ~retransmission:false;
      t.snd_nxt <- t.snd_nxt + 1
    done
  end

let check_complete t =
  match t.limit with
  | Some n when t.snd_una >= n && not (completed t) ->
      t.completed_at <- Some (Sim.now t.sim);
      (Timer.cancel [@inlined]) ((rto_timer [@inlined]) t);
      if Obs.Trace.enabled t.tracer Obs.Trace.C_flow_done then
        emit t (Obs.Trace.Flow_done { flow = t.flow; segments = n });
      t.on_complete ();
      true
  | Some _ | None -> false

let record_sack t blocks =
  match t.sack_board with
  | None -> ()
  | Some b ->
      List.iter
        (fun (first, last) ->
          for seq = first to last - 1 do
            if seq >= t.snd_una then Hashtbl.replace b.scoreboard seq ()
          done)
        blocks

let prune_scoreboard t =
  (* Runs on every new ACK; an empty scoreboard is the common case, so
     check before doing any work (a [Hashtbl.copy] here measurably
     dominated ACK processing). *)
  match t.sack_board with
  | Some b when Hashtbl.length b.scoreboard > 0 ->
      let stale =
        Hashtbl.fold
          (fun seq () acc -> if seq < t.snd_una then seq :: acc else acc)
          b.scoreboard []
      in
      List.iter (Hashtbl.remove b.scoreboard) stale
  | Some _ | None -> ()

let reset_rtx_done t =
  match t.sack_board with Some b -> Hashtbl.reset b.rtx_done | None -> ()

(* Lowest hole in [snd_una, recover) that is neither SACKed nor already
   retransmitted in this recovery episode. *)
let next_hole t b =
  let rec scan seq =
    if seq >= t.recover then None
    else if Hashtbl.mem b.scoreboard seq || Hashtbl.mem b.rtx_done seq then
      scan (seq + 1)
    else Some seq
  in
  scan t.snd_una

(* Callers repair holes only when SACK is on, so the board is there. *)
let retransmit_hole t =
  match t.sack_board with
  | None -> ()
  | Some b -> (
      match next_hole t b with
      | Some seq ->
          Hashtbl.replace b.rtx_done seq ();
          send_segment t ~seq ~retransmission:true
      | None -> ())

let handle_new_ack t ~ack ~ece =
  let newly = ack - t.snd_una in
  t.snd_una <- ack;
  if t.sample_seq >= 0 && ack > t.sample_seq then begin
    Rtt_estimator.sample t.rtt (Time.diff (Sim.now t.sim) t.sample_sent);
    t.sample_seq <- -1
  end;
  t.dupacks <- 0;
  prune_scoreboard t;
  if t.in_recovery then begin
    if t.snd_una >= t.recover then begin
      t.in_recovery <- false;
      reset_rtx_done t
    end
    else if t.config.sack then
      (* Partial ACK: the next hole is lost too; repair it now. *)
      retransmit_hole t
  end;
  t.cc.Cc.on_ack ~newly_acked:newly ~ece ~snd_una:t.snd_una
    ~snd_nxt:t.snd_nxt;
  if not (check_complete t) then begin
    if (outstanding [@inlined]) t > 0 then (arm_rto [@inlined]) t
    else (Timer.cancel [@inlined]) ((rto_timer [@inlined]) t);
    pump t;
    if
      (outstanding [@inlined]) t > 0
      && not (Timer.is_pending ((rto_timer [@inlined]) t))
    then (arm_rto [@inlined]) t
  end

let handle_dup_ack t ~ece =
  t.cc.Cc.on_ack ~newly_acked:0 ~ece ~snd_una:t.snd_una ~snd_nxt:t.snd_nxt;
  t.dupacks <- t.dupacks + 1;
  if t.dupacks = t.config.dupack_threshold && not t.in_recovery then begin
    t.in_recovery <- true;
    t.recover <- t.snd_nxt;
    t.fast_retransmits <- t.fast_retransmits + 1;
    if Obs.Trace.enabled t.tracer Obs.Trace.C_fast_retransmit then
      emit t (Obs.Trace.Fast_retransmit { flow = t.flow; snd_una = t.snd_una });
    t.cc.Cc.on_fast_retransmit ();
    t.sample_seq <- -1;
    if t.config.sack then begin
      (* Selective repair: retransmit only the holes the scoreboard shows. *)
      reset_rtx_done t;
      retransmit_hole t
    end
    else begin
      (* Go-back-N recovery: rewind to the hole and let the (now reduced)
         window pump resend from there. Wasteful against SACK but robust,
         and the cwnd trajectory — what the experiments measure — is the
         same. *)
      t.retransmissions <- t.retransmissions + 1;
      t.snd_nxt <- t.snd_una
    end;
    (arm_rto [@inlined]) t
  end
  else if t.in_recovery && t.config.sack then
    (* Each further dupack clocks out one more hole repair. *)
    retransmit_hole t;
  pump t

let handle_ack t ~ack ~ece ~sack =
  if not (completed t) then begin
    if ece then t.ece_acks <- t.ece_acks + 1;
    record_sack t sack;
    if ack > t.snd_una then handle_new_ack t ~ack ~ece
    else if (outstanding [@inlined]) t > 0 then handle_dup_ack t ~ece
  end

let handle_rto t =
  if not (completed t) && (outstanding [@inlined]) t > 0 then begin
    t.timeouts <- t.timeouts + 1;
    if Obs.Trace.enabled t.tracer Obs.Trace.C_rto then
      emit t
        (Obs.Trace.Rto
           { flow = t.flow; snd_una = t.snd_una; timeouts = t.timeouts });
    Rtt_estimator.backoff t.rtt;
    t.cc.Cc.on_timeout ();
    t.in_recovery <- false;
    t.dupacks <- 0;
    t.sample_seq <- -1;
    (match t.sack_board with
    | Some b ->
        Hashtbl.reset b.scoreboard;
        Hashtbl.reset b.rtx_done
    | None -> ());
    (* Go-back-N: rewind and let the window pump resend from snd_una. *)
    t.recover <- t.snd_nxt;
    t.snd_nxt <- t.snd_una;
    t.retransmissions <- t.retransmissions + 1;
    (arm_rto [@inlined]) t;
    pump t
  end

let create sim ~host ~peer ~flow ~cc ?(tracer = Obs.Trace.null)
    ?(config = default_config) ?limit_segments ?(on_complete = fun () -> ())
    () =
  if config.segment_bytes <= 0 then
    invalid_arg "Sender.create: bad segment size";
  (match limit_segments with
  | Some n when n <= 0 -> invalid_arg "Sender.create: empty flow"
  | Some _ | None -> ());
  let t =
    {
      sim;
      st = Net.Packet.store_of sim;
      host;
      peer;
      flow;
      tracer;
      component = "flow" ^ Int.to_string flow;
      config;
      cc = dummy_cc;
      cwnd = clamp_cwnd config config.initial_cwnd;
      (* Effectively unbounded: slow start until a loss or a mark. *)
      ssthresh = 1e9;
      snd_una = 0;
      snd_nxt = 0;
      limit = limit_segments;
      dupacks = 0;
      in_recovery = false;
      recover = 0;
      rtt =
        Rtt_estimator.create ~min_rto:config.min_rto ~max_rto:config.max_rto
          ~initial_rto:config.initial_rto ();
      rto_timer = None;
      sample_seq = -1;
      sample_sent = Time.zero;
      (* Smallest tables (16 buckets), grown as recoveries need. *)
      sack_board =
        (if config.sack then
           Some { scoreboard = Hashtbl.create 1; rtx_done = Hashtbl.create 1 }
         else None);
      retransmissions = 0;
      timeouts = 0;
      fast_retransmits = 0;
      ece_acks = 0;
      completed_at = None;
      on_complete;
      started = false;
    }
  in
  t.rto_timer <- Some (Timer.create sim ~action:(fun () -> handle_rto t));
  let api =
    {
      Cc.now = (fun () -> Sim.now sim);
      flow;
      tracer;
      get_cwnd = (fun () -> t.cwnd);
      set_cwnd = (fun c -> t.cwnd <- clamp_cwnd config c);
      get_ssthresh = (fun () -> t.ssthresh);
      set_ssthresh = (fun s -> t.ssthresh <- at_least_one s);
    }
  in
  t.cc <- cc api;
  Net.Host.bind_flow host ~flow (fun pkt ->
      let ack = (Segment.ack_no [@inlined]) t.st pkt in
      let ece = (Segment.ece [@inlined]) t.st pkt
      and sack = (Segment.sack [@inlined]) t.st pkt in
      (* The sender is this flow's terminal consumer of ACKs: extract
         the fields, recycle the handle, then run the ACK machinery. *)
      (Net.Packet.free [@inlined]) t.st pkt;
      if ack >= 0 then handle_ack t ~ack ~ece ~sack);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    if Obs.Trace.enabled t.tracer Obs.Trace.C_flow_start then
      emit t (Obs.Trace.Flow_start { flow = t.flow });
    pump t
  end

let cwnd t = t.cwnd
let alpha t = t.cc.Cc.alpha
let completion_time t = t.completed_at
let retransmissions t = t.retransmissions
let timeouts t = t.timeouts
let fast_retransmits t = t.fast_retransmits
let ece_acks t = t.ece_acks
let srtt t = Rtt_estimator.srtt t.rtt

let close t =
  (Timer.cancel [@inlined]) ((rto_timer [@inlined]) t);
  Net.Host.unbind_flow t.host ~flow:t.flow
