(** Terminal line plots.

    Used by the bench harness to render queue-trace "figures" directly in
    the terminal output so the oscillation shape is visible without a
    plotting stack. *)

val render :
  ?width:int ->
  ?height:int ->
  ?y_label:string ->
  series:(string * float array) list ->
  unit ->
  string
(** Plots each named series over its index (series are expected to share a
    common x sampling). Distinct series use distinct glyphs; a legend and a
    y-axis scale are included. [width]/[height] are the plot area in
    characters (defaults 72x16). *)
