type params = { g : float; init_alpha : float }

let default_params = { g = 1. /. 16.; init_alpha = 1.0 }

type reduction_context = {
  alpha : float;
  cwnd : float;
  now : Engine.Time.t;
  rtt_estimate : Engine.Time.span option;
  snd_una : int;
}

(* Per-ACK state, kept free of boxes: alpha lives in a one-slot float
   array (a mutable float field of this mixed record would box on every
   window end), which is also [Tcp.Cc.t.alpha], so sampling it reads the
   slot; the last window's duration is an immediate ns count, -1 until a
   window completes. *)
type state = {
  alpha : float array;
  mutable window_end : int;
  mutable acked_total : int;
  mutable acked_marked : int;
  mutable cwr_end : int;
  mutable epoch_started : Engine.Time.t;
  mutable epoch_duration_ns : int;
}

(* [penalty = None] is plain DCTCP: the cut reads alpha straight from
   the state, so it builds no [reduction_context], no [Some span] and
   no boxed penalty. A hook gets the context and has its result clamped
   to [0, 1]; the identity hook [fun ctx -> ctx.alpha] cuts to the same
   window, since alpha never leaves [0, 1]. *)
let make ~params ~penalty =
  if params.g <= 0. || params.g > 1. then
    invalid_arg "Dctcp_cc.cc: g out of (0,1]";
  if params.init_alpha < 0. || params.init_alpha > 1. then
    invalid_arg "Dctcp_cc.cc: init_alpha out of [0,1]";
  fun (api : Tcp.Cc.flow_api) ->
    let st =
      {
        alpha = [| params.init_alpha |];
        window_end = 0;
        acked_total = 0;
        acked_marked = 0;
        cwr_end = 0;
        epoch_started = api.Tcp.Cc.now ();
        epoch_duration_ns = -1;
      }
    in
    let component = "flow" ^ Int.to_string api.Tcp.Cc.flow in
    let on_ack ~newly_acked ~ece ~snd_una ~snd_nxt =
      if newly_acked > 0 then begin
        st.acked_total <- st.acked_total + newly_acked;
        if ece then st.acked_marked <- st.acked_marked + newly_acked
      end;
      if ece then begin
        if snd_una > st.cwr_end then begin
          (* Penalty-gated proportional backoff, once per window. *)
          let cwnd = api.Tcp.Cc.get_cwnd () in
          let alpha = st.alpha.(0) in
          let target =
            match penalty with
            | None -> cwnd *. (1. -. (alpha /. 2.))
            | Some penalty ->
                let p =
                  penalty
                    {
                      alpha;
                      cwnd;
                      now = api.Tcp.Cc.now ();
                      rtt_estimate =
                        (if st.epoch_duration_ns < 0 then None
                         else
                           Some
                             (Engine.Time.span_of_int_ns st.epoch_duration_ns));
                      snd_una;
                    }
                in
                cwnd *. (1. -. (Float.min 1. (Float.max 0. p) /. 2.))
          in
          if Obs.Trace.enabled api.Tcp.Cc.tracer Obs.Trace.C_cwnd_cut then
            (Obs.Trace.emit_cut [@inlined]) api.Tcp.Cc.tracer
              ~time:(api.Tcp.Cc.now ())
              ~component ~flow:api.Tcp.Cc.flow ~cwnd_before:cwnd
              ~cwnd_after:target ~alpha;
          Tcp.Cc.set_window api target;
          st.cwr_end <- snd_nxt
        end
      end
      else Tcp.Cc.grow api newly_acked;
      if snd_una >= st.window_end then begin
        (* End of the observation window: fold the marked fraction into
           alpha and open the next window. *)
        let f =
          if st.acked_total = 0 then 0.
          else float_of_int st.acked_marked /. float_of_int st.acked_total
        in
        st.alpha.(0) <- ((1. -. params.g) *. st.alpha.(0)) +. (params.g *. f);
        st.acked_total <- 0;
        st.acked_marked <- 0;
        st.window_end <- snd_nxt;
        let now = api.Tcp.Cc.now () in
        let span =
          Engine.Time.to_int_ns now - Engine.Time.to_int_ns st.epoch_started
        in
        if span > 0 then st.epoch_duration_ns <- span;
        st.epoch_started <- now
      end
    in
    {
      Tcp.Cc.on_ack;
      on_fast_retransmit = (fun () -> Tcp.Cc.halve_on_loss api);
      on_timeout = (fun () -> Tcp.Cc.collapse_on_timeout api);
      alpha = st.alpha;
    }

let cc_with_penalty ?(params = default_params) ~penalty () =
  make ~params ~penalty:(Some penalty)

let cc ?(params = default_params) () = make ~params ~penalty:None
