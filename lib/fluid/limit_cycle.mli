(** Limit-cycle extraction from fluid trajectories.

    The describing-function analysis (lib/control) predicts oscillation
    amplitude [X] and angular frequency [w] for the queue; this module
    measures both on an integrated trajectory so the prediction can be
    validated quantitatively: amplitude from the mean peak-to-peak swing,
    frequency from mean-crossing periods. *)

type t = {
  amplitude : float;
      (** Half the mean peak-to-peak swing over the measured cycles. *)
  omega : float;  (** Mean angular frequency, rad/s. *)
  period : float;  (** Mean period, seconds. *)
  cycles : int;  (** Number of full cycles measured. *)
  mean : float;  (** Mean level the signal oscillates about. *)
}

val measure : (* dtlint: test-only: pinned on synthetic signals *)
  times:float array -> values:float array -> discard:float -> t option
(** Measures the steady oscillation of [values] after dropping the first
    [discard] seconds. Cycles are delimited by upward crossings of the
    signal mean; [None] if fewer than three full cycles are present (no
    sustained oscillation).
    @raise Invalid_argument on mismatched array lengths or if [discard]
    exceeds the trajectory. *)

val of_queue : Dctcp_fluid.trajectory -> discard:float -> t option
(** {!measure} applied to the queue component. *)
