(* NewReno-style loss-based congestion control: the non-ECN competitor
   for the shared-buffer sweeps. Unlike [Tcp.Cc.reno], which halves on
   every fast retransmit, this controller halves at most once per
   loss-recovery episode — further duplicate-ACK retransmits before
   snd_una passes the recovery point leave the window alone, as in RFC
   6582. With tiny shared buffers a single overflow burst loses several
   segments from one window; halving once instead of per loss is what
   keeps the comparison against the ECN protocols fair.

   ECN is ignored entirely (ECE never moves the window): the point of
   the competitor is to show what pure loss feedback does to a shared
   pool that the marking protocols keep half-empty. *)

let newreno (api : Tcp.Cc.flow_api) =
  (* [recover] is the snd_nxt recorded when the last halving happened;
     fast retransmits for segments below it belong to the same loss
     episode and must not halve again. *)
  let recover = ref 0 in
  let una = ref 0 in
  let nxt = ref 0 in
  {
    Tcp.Cc.on_ack =
      (fun ~newly_acked ~ece:_ ~snd_una ~snd_nxt ->
        una := snd_una;
        nxt := snd_nxt;
        Tcp.Cc.grow api newly_acked);
    on_fast_retransmit =
      (fun () ->
        if !una >= !recover then begin
          Tcp.Cc.halve_on_loss api;
          recover := !nxt
        end);
    on_timeout =
      (fun () ->
        Tcp.Cc.collapse_on_timeout api;
        recover := !nxt);
    alpha = [||];
  }
