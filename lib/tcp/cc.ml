type flow_api = {
  now : unit -> Engine.Time.t;
  flow : int;
  tracer : Obs.Trace.t;
  get_cwnd : unit -> float;
  set_cwnd : float -> unit;
  get_ssthresh : unit -> float;
  set_ssthresh : float -> unit;
}

type t = {
  on_ack : newly_acked:int -> ece:bool -> snd_una:int -> snd_nxt:int -> unit;
  on_fast_retransmit : unit -> unit;
  on_timeout : unit -> unit;
  alpha : float array;
}

type factory = flow_api -> t

(* Shared Reno-style window growth. *)
let grow api newly_acked =
  if newly_acked > 0 then begin
    let cwnd = api.get_cwnd () in
    if cwnd < api.get_ssthresh () then
      api.set_cwnd (cwnd +. float_of_int newly_acked)
    else api.set_cwnd (cwnd +. (float_of_int newly_acked /. cwnd))
  end

(* Not inlined, so [w] arrives boxed and both setters take that one
   box: inlined, a float computed at the call site would be boxed once
   per setter. *)
let[@inline never] set_window api w =
  api.set_cwnd w;
  api.set_ssthresh w

let halve_on_loss api =
  let half = api.get_cwnd () /. 2. in
  set_window api (if half >= 1. then half else 1.)

let collapse_on_timeout api =
  let half = api.get_cwnd () /. 2. in
  api.set_ssthresh (if half >= 1. then half else 1.);
  api.set_cwnd 1.

let reno api =
  {
    on_ack =
      (fun ~newly_acked ~ece:_ ~snd_una:_ ~snd_nxt:_ -> grow api newly_acked);
    on_fast_retransmit = (fun () -> halve_on_loss api);
    on_timeout = (fun () -> collapse_on_timeout api);
    alpha = [||];
  }

let ecn_reno api =
  (* One multiplicative decrease per window of data: after reacting to ECE
     we ignore further ECE until snd_una passes the snd_nxt recorded at
     reaction time. *)
  let cwr_end = ref 0 in
  {
    on_ack =
      (fun ~newly_acked ~ece ~snd_una ~snd_nxt ->
        if ece then begin
          (* No growth on congestion-echo ACKs. *)
          if snd_una > !cwr_end then begin
            halve_on_loss api;
            cwr_end := snd_nxt
          end
        end
        else grow api newly_acked);
    on_fast_retransmit = (fun () -> halve_on_loss api);
    on_timeout = (fun () -> collapse_on_timeout api);
    alpha = [||];
  }
