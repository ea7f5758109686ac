(* Spectral validation: the packet simulator's measured oscillation
   frequency against the describing-function prediction, in the long-RTT
   configuration where Theorems 1-2 predict finite limit cycles. Both
   frequencies are metrics of the spectrum claim. *)

let epilogue =
  Bench_common.note
    "A '-' under df_freq_hz: the describing function predicts a stable\n\
     equilibrium there (no limit cycle); under sim_freq_hz: no dominant\n\
     peak in the sampled queue.\n\n\
     The DF predicts the first harmonic of the limit cycle in the smooth\n\
     fluid abstraction; the packet system adds window quantization and\n\
     ACK-clocking, which shorten the cycle. Frequencies agree within a\n\
     factor of two and the predicted ordering (DT-DCTCP oscillates faster\n\
     and with less queue deviation than DCTCP) holds in the packet system.\n"
