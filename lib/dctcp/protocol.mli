(** Protocol bundles: everything a scenario needs to deploy one of the
    compared transports — a congestion-control factory for the senders
    and a fresh marking policy for the bottleneck switch. Receivers echo
    every packet's CE bit ({!Tcp.Receiver}), whatever the bundle. *)

type t = {
  name : string;
  cc : Tcp.Cc.factory;
  marking : ?on_flip:Marking_policies.flip_callback -> unit -> Net.Marking.t;
      (** Fresh policy instance (policies are stateful, one per queue).
          [on_flip] observes hysteresis state changes where the policy has
          any (DT-DCTCP); stateless policies ignore it, so existing
          [proto.marking ()] call sites are unchanged. *)
}

val dctcp : ?g:float -> k_bytes:int -> unit -> t
(** DCTCP with single-threshold marking at [k_bytes]. *)

val dt_dctcp : ?g:float -> k1_bytes:int -> k2_bytes:int -> unit -> t
(** DT-DCTCP: the same DCTCP sender with double-threshold marking. *)

val dctcp_pkts : ?g:float -> k:int -> unit -> t
(** Packet-denominated convenience (the paper's K=40 packets of 1500 B
    etc.). *)

val dt_dctcp_pkts : ?g:float -> k1:int -> k2:int -> unit -> t

val reno : unit -> t
(** Plain drop-tail TCP Reno (no marking), as a baseline. *)

val ecn_reno : k_bytes:int -> t
(** Classic RFC-3168 ECN TCP with single-threshold marking: reacts to any
    ECE by halving — the "ECN is not sufficient" comparison point. *)

val newreno : unit -> t
(** NewReno-style loss-based TCP ({!Reno_cc.newreno}, no marking): the
    non-ECN competitor for the shared-buffer sweeps. *)

val dctcp_scaled : ?g:float -> k_frac:float -> unit -> t
(** DCTCP marking at [K = k_frac x effective limit]
    ({!Marking_policies.single_threshold_scaled}) — the threshold rides
    the buffer manager's moving capacity on shared-pool switches. *)

val dt_dctcp_scaled : ?g:float -> k1_frac:float -> k2_frac:float -> unit -> t
(** DT-DCTCP with the hysteresis band at fractions of the effective
    limit ({!Marking_policies.double_threshold_scaled}). *)
