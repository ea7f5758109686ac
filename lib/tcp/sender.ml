module Sim = Engine.Sim
module Time = Engine.Time
module Timer = Engine.Timer

type config = {
  segment_bytes : int;
  ack_bytes : int;
  initial_cwnd : float;
  initial_ssthresh : float;
  dupack_threshold : int;
  min_rto : Time.span;
  max_rto : Time.span;
  initial_rto : Time.span;
  max_cwnd : float;
  ecn_capable : bool;
  sack : bool;
}

let default_config =
  {
    segment_bytes = 1500;
    ack_bytes = 40;
    initial_cwnd = 2.;
    initial_ssthresh = 1e9;
    dupack_threshold = 3;
    min_rto = Time.span_of_ms 200.;
    max_rto = Time.span_of_sec 60.;
    initial_rto = Time.span_of_sec 1.;
    max_cwnd = 1e9;
    ecn_capable = true;
    sack = false;
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
  (* cwnd (slot 0) and ssthresh (slot 1) live in a flat float array: as
     mutable float fields of this mixed record every window update would
     box, and the ACK path updates cwnd constantly. *)
  w : float array;
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
  scoreboard : (int, unit) Hashtbl.t;
  rtx_done : (int, unit) Hashtbl.t;
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
    Cc.name = "uninitialised";
    on_ack = (fun ~newly_acked:_ ~ece:_ ~snd_una:_ ~snd_nxt:_ -> ());
    on_fast_retransmit = (fun () -> ());
    on_timeout = (fun () -> ());
    alpha = (fun () -> None);
  }

let clamp_cwnd t c = Float.min (Float.max c 1.) t.config.max_cwnd

let emit t event =
  Obs.Trace.emit t.tracer
    {
      Obs.Trace.time = Sim.now t.sim;
      component = t.component;
      event;
    }

let effective_window t = Stdlib.max 1 (int_of_float t.w.(0))

let outstanding t = t.snd_nxt - t.snd_una

let completed t = match t.completed_at with None -> false | Some _ -> true

let rto_timer t =
  match t.rto_timer with
  | Some timer -> timer
  | None -> invalid_arg "Sender: timer not initialised"

let arm_rto t = Timer.set (rto_timer t) ~after:(Rtt_estimator.rto t.rtt)

let send_segment t ~seq ~retransmission =
  let ecn =
    if t.config.ecn_capable then Net.Packet.Ect else Net.Packet.Not_ect
  in
  let pkt =
    Segment.data t.st ~src:(Net.Host.id t.host) ~dst:t.peer ~flow:t.flow
      ~size:t.config.segment_bytes ~ecn ~seq
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
  if not (Timer.is_pending (rto_timer t)) then arm_rto t

let pump t =
  if t.started && not (completed t) then begin
    let window_limit = t.snd_una + effective_window t in
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
      Timer.cancel (rto_timer t);
      if Obs.Trace.enabled t.tracer Obs.Trace.C_flow_done then
        emit t (Obs.Trace.Flow_done { flow = t.flow; segments = n });
      t.on_complete ();
      true
  | Some _ | None -> false

let record_sack t blocks =
  if t.config.sack then
    List.iter
      (fun (first, last) ->
        for seq = first to last - 1 do
          if seq >= t.snd_una then Hashtbl.replace t.scoreboard seq ()
        done)
      blocks

let prune_scoreboard t =
  (* Runs on every new ACK; without SACK the scoreboard is always empty,
     so check before doing any work (a [Hashtbl.copy] here measurably
     dominated non-SACK ACK processing). *)
  if Hashtbl.length t.scoreboard > 0 then begin
    let stale =
      Hashtbl.fold
        (fun seq () acc -> if seq < t.snd_una then seq :: acc else acc)
        t.scoreboard []
    in
    List.iter (Hashtbl.remove t.scoreboard) stale
  end

(* Lowest hole in [snd_una, recover) that is neither SACKed nor already
   retransmitted in this recovery episode. *)
let next_hole t =
  let rec scan seq =
    if seq >= t.recover then None
    else if Hashtbl.mem t.scoreboard seq || Hashtbl.mem t.rtx_done seq then
      scan (seq + 1)
    else Some seq
  in
  scan t.snd_una

let retransmit_hole t =
  match next_hole t with
  | Some seq ->
      Hashtbl.replace t.rtx_done seq ();
      send_segment t ~seq ~retransmission:true
  | None -> ()

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
      Hashtbl.reset t.rtx_done
    end
    else if t.config.sack then
      (* Partial ACK: the next hole is lost too; repair it now. *)
      retransmit_hole t
  end;
  t.cc.Cc.on_ack ~newly_acked:newly ~ece ~snd_una:t.snd_una
    ~snd_nxt:t.snd_nxt;
  if not (check_complete t) then begin
    if outstanding t > 0 then arm_rto t else Timer.cancel (rto_timer t);
    pump t;
    if outstanding t > 0 && not (Timer.is_pending (rto_timer t)) then
      arm_rto t
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
      Hashtbl.reset t.rtx_done;
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
    arm_rto t
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
    else if outstanding t > 0 then handle_dup_ack t ~ece
  end

let handle_rto t =
  if not (completed t) && outstanding t > 0 then begin
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
    Hashtbl.reset t.scoreboard;
    Hashtbl.reset t.rtx_done;
    (* Go-back-N: rewind and let the window pump resend from snd_una. *)
    t.recover <- t.snd_nxt;
    t.snd_nxt <- t.snd_una;
    t.retransmissions <- t.retransmissions + 1;
    arm_rto t;
    pump t
  end

let clamp_cwnd_raw config c = Float.min (Float.max c 1.) config.max_cwnd

let create sim ~host ~peer ~flow ~cc ?(tracer = Obs.Trace.null)
    ?(config = default_config) ?limit_segments ?(on_complete = fun () -> ())
    () =
  if config.segment_bytes <= 0 || config.ack_bytes <= 0 then
    invalid_arg "Sender.create: bad segment sizes";
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
      component = Printf.sprintf "flow%d" flow;
      config;
      cc = dummy_cc;
      w =
        [| clamp_cwnd_raw config config.initial_cwnd;
           config.initial_ssthresh |];
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
      scoreboard = Hashtbl.create 64;
      rtx_done = Hashtbl.create 64;
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
      get_cwnd = (fun () -> t.w.(0));
      set_cwnd = (fun c -> t.w.(0) <- clamp_cwnd t c);
      get_ssthresh = (fun () -> t.w.(1));
      set_ssthresh = (fun s -> t.w.(1) <- Float.max s 1.);
    }
  in
  t.cc <- cc api;
  Net.Host.bind_flow host ~flow (fun pkt ->
      let ack = Segment.ack_no t.st pkt in
      let ece = Segment.ece t.st pkt and sack = Segment.sack t.st pkt in
      (* The sender is this flow's terminal consumer of ACKs: extract
         the fields, recycle the handle, then run the ACK machinery. *)
      Net.Packet.free t.st pkt;
      if ack >= 0 then handle_ack t ~ack ~ece ~sack);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    if Obs.Trace.enabled t.tracer Obs.Trace.C_flow_start then
      emit t (Obs.Trace.Flow_start { flow = t.flow });
    pump t
  end

let cwnd t = t.w.(0)
let alpha t = t.cc.Cc.alpha ()
let completion_time t = t.completed_at
let retransmissions t = t.retransmissions
let timeouts t = t.timeouts
let fast_retransmits t = t.fast_retransmits
let ece_acks t = t.ece_acks
let srtt t = Rtt_estimator.srtt t.rtt

let close t =
  Timer.cancel (rto_timer t);
  Net.Host.unbind_flow t.host ~flow:t.flow
