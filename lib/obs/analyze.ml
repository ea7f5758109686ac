module Time = Engine.Time

type config = {
  sample_period : Time.span;
  band_bytes : (int * int) option;
  n_flows : int;
  rtt : Time.span;
  segment_bytes : int;
}

(* Autocorrelation depth in grid samples: the longest detectable
   oscillation period is [max_lag * sample_period]. *)
let max_lag = 512

let required_classes =
  [
    Trace.C_enqueue;
    Trace.C_dequeue;
    Trace.C_drop;
    Trace.C_mark;
    Trace.C_mark_state_flip;
    Trace.C_cwnd_cut;
  ]

(* Log2 histogram bin of a positive int: values in [2^b, 2^(b+1)) land
   in bin b; 0 shares bin 0 with 1. 63 bins cover any int. *)
let log2_bin v =
  let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
  go 0 v

let hist_bins = 63

(* Hysteresis cycle-detector zones. *)
let zone_unknown = 0
let zone_low = 1
let zone_high = 2

type t = {
  cfg : config;
  period_ns : int;
  rtt_ns : int;
  on_sample : (float -> unit) option;
  (* Float accumulators, slots [f_*] below: as mutable float fields of
     this mixed record every store would box. *)
  fl : float array;
  (* record bookkeeping *)
  mutable records : int;
  mutable first_t_ns : int;
  mutable last_t_ns : int;
  mutable finalized : bool;
  (* zero-order-hold occupancy resampling *)
  mutable occ : int;  (* current occupancy in bytes *)
  mutable next_grid_ns : int;
  (* Welford accumulator over grid samples (mean and M2 in [fl]) *)
  mutable n_samples : int;
  (* event-level occupancy extremes *)
  mutable min_occ : int;
  mutable max_occ : int;
  (* bounded-lag autocorrelation: ring of the last [max_lag] samples
     and one running product sum per lag *)
  lagbuf : float array;
  acc : float array;  (* acc.(l-1) = sum over n of x_n * x_(n-l) *)
  (* cycle detector against the hysteresis band *)
  band_low : int;  (* min_int when no band *)
  band_high : int;
  mutable zone : int;
  mutable cycle_start_ns : int;  (* last up-crossing instant, -1 = none *)
  mutable cyc_min : int;
  mutable cyc_max : int;
  mutable cycles : int;
  mutable amp_max : int;
  amp_hist : int array;
  period_hist : int array;
  (* marking flips *)
  mutable flips : int;
  mutable flips_up : int;
  (* flow-synchronization index over RTT windows *)
  seen : bool array;
  mutable seen_count : int;
  mutable cur_window : int;
  mutable active_windows : int;
}

(* Slots of [fl]. *)
let f_mean = 0
let f_m2 = 1
let f_amp_sum = 2 (* bytes *)
let f_period_sum_ns = 3
let f_sync_sum = 4
let f_sync_max = 5

let create ?on_sample cfg =
  if Int64.compare cfg.sample_period 0L <= 0 then
    invalid_arg "Obs.Analyze.create: sample_period must be positive";
  if cfg.n_flows <= 0 then
    invalid_arg "Obs.Analyze.create: n_flows must be positive";
  if Int64.compare cfg.rtt 0L <= 0 then
    invalid_arg "Obs.Analyze.create: rtt must be positive";
  if cfg.segment_bytes <= 0 then
    invalid_arg "Obs.Analyze.create: segment_bytes must be positive";
  let band_low, band_high =
    match cfg.band_bytes with
    | None -> (min_int, min_int)
    | Some (lo, hi) ->
        if lo > hi then invalid_arg "Obs.Analyze.create: inverted band";
        (lo, hi)
  in
  {
    cfg;
    period_ns = Int64.to_int cfg.sample_period;
    rtt_ns = Int64.to_int cfg.rtt;
    on_sample;
    fl = Array.make 6 0.;
    records = 0;
    first_t_ns = 0;
    last_t_ns = 0;
    finalized = false;
    occ = 0;
    next_grid_ns = 0;
    n_samples = 0;
    min_occ = max_int;
    max_occ = 0;
    lagbuf = Array.make max_lag 0.;
    acc = Array.make max_lag 0.;
    band_low;
    band_high;
    zone = zone_unknown;
    cycle_start_ns = -1;
    cyc_min = max_int;
    cyc_max = 0;
    cycles = 0;
    amp_max = 0;
    amp_hist = Array.make hist_bins 0;
    period_hist = Array.make hist_bins 0;
    flips = 0;
    flips_up = 0;
    seen = Array.make cfg.n_flows false;
    seen_count = 0;
    cur_window = -1;
    active_windows = 0;
  }

(* --- uniform-grid resampling + Welford + autocorrelation ----------- *)

let push_sample t =
  let x = float_of_int t.occ in
  let n = t.n_samples in
  (* running products against the previous [max_lag] samples *)
  let maxl = if n < max_lag then n else max_lag in
  let pos = n mod max_lag in
  for l = 1 to maxl do
    let i = pos - l in
    let i = if i < 0 then i + max_lag else i in
    t.acc.(l - 1) <- t.acc.(l - 1) +. (x *. t.lagbuf.(i))
  done;
  t.lagbuf.(pos) <- x;
  t.n_samples <- n + 1;
  let fl = t.fl in
  let delta = x -. fl.(f_mean) in
  fl.(f_mean) <- fl.(f_mean) +. (delta /. float_of_int t.n_samples);
  fl.(f_m2) <- fl.(f_m2) +. (delta *. (x -. fl.(f_mean)));
  match t.on_sample with Some f -> f x | None -> ()

let flush_grid t ~upto_ns ~inclusive =
  let stop = if inclusive then upto_ns + 1 else upto_ns in
  while t.next_grid_ns < stop do
    push_sample t;
    t.next_grid_ns <- t.next_grid_ns + t.period_ns
  done

(* --- cycle detector ------------------------------------------------ *)

let record_cycle t ~now_ns =
  t.cycles <- t.cycles + 1;
  let amp = t.cyc_max - t.cyc_min in
  t.fl.(f_amp_sum) <- t.fl.(f_amp_sum) +. float_of_int amp;
  if amp > t.amp_max then t.amp_max <- amp;
  t.amp_hist.(log2_bin amp) <- t.amp_hist.(log2_bin amp) + 1;
  let period = now_ns - t.cycle_start_ns in
  t.fl.(f_period_sum_ns) <- t.fl.(f_period_sum_ns) +. float_of_int period;
  t.period_hist.(log2_bin period) <- t.period_hist.(log2_bin period) + 1

let occ_event t ~now_ns ~occ =
  t.occ <- occ;
  if occ < t.min_occ then t.min_occ <- occ;
  if occ > t.max_occ then t.max_occ <- occ;
  if t.band_low <> min_int then begin
    if t.cycle_start_ns >= 0 then begin
      if occ < t.cyc_min then t.cyc_min <- occ;
      if occ > t.cyc_max then t.cyc_max <- occ
    end;
    if occ >= t.band_high then begin
      if t.zone = zone_low then begin
        (* up-crossing: one full peak–trough cycle ends here *)
        if t.cycle_start_ns >= 0 then record_cycle t ~now_ns;
        t.cycle_start_ns <- now_ns;
        t.cyc_min <- occ;
        t.cyc_max <- occ
      end;
      t.zone <- zone_high
    end
    else if occ <= t.band_low then t.zone <- zone_low
  end

(* --- synchronization index ----------------------------------------- *)

let close_window t =
  if t.seen_count > 0 then begin
    let frac = float_of_int t.seen_count /. float_of_int t.cfg.n_flows in
    t.active_windows <- t.active_windows + 1;
    t.fl.(f_sync_sum) <- t.fl.(f_sync_sum) +. frac;
    if frac > t.fl.(f_sync_max) then t.fl.(f_sync_max) <- frac;
    Array.fill t.seen 0 (Array.length t.seen) false;
    t.seen_count <- 0
  end

let cut_event t ~now_ns ~flow =
  let w = (now_ns - t.first_t_ns) / t.rtt_ns in
  if w <> t.cur_window then begin
    close_window t;
    t.cur_window <- w
  end;
  if flow >= 0 && flow < t.cfg.n_flows && not t.seen.(flow) then begin
    t.seen.(flow) <- true;
    t.seen_count <- t.seen_count + 1
  end

(* --- feeding ------------------------------------------------------- *)

(* The step every event takes, whichever entry point delivered it:
   advance the clock to [time] (sampling the grid instants it passes)
   and count the record. Returns the event instant in ns. *)
let advance t time =
  if t.finalized then invalid_arg "Obs.Analyze.feed: already finalized";
  let now_ns = Time.to_int_ns time in
  if t.records = 0 then begin
    t.first_t_ns <- now_ns;
    t.next_grid_ns <- now_ns
  end
  else if now_ns < t.last_t_ns then
    invalid_arg "Obs.Analyze.feed: records out of time order";
  (* Grid instants strictly before this record sample the pre-record
     occupancy: a sample at instant g reflects every event with time
     <= g, exactly as a zero-order hold of the event stream. *)
  flush_grid t ~upto_ns:now_ns ~inclusive:false;
  t.records <- t.records + 1;
  t.last_t_ns <- now_ns;
  now_ns

let feed t (r : Trace.record) =
  let now_ns = advance t r.Trace.time in
  match r.Trace.event with
  | Trace.Enqueue { occ_bytes; _ }
  | Trace.Dequeue { occ_bytes; _ }
  | Trace.Mark { occ_bytes; _ }
  | Trace.Drop { occ_bytes; _ } ->
      occ_event t ~now_ns ~occ:occ_bytes
  | Trace.Mark_state_flip { marking; occ_bytes } ->
      t.flips <- t.flips + 1;
      if marking then t.flips_up <- t.flips_up + 1;
      occ_event t ~now_ns ~occ:occ_bytes
  | Trace.Cwnd_cut { flow; _ } -> cut_event t ~now_ns ~flow
  | _ -> ()

(* Occupancy events sent with [Trace.emit_occ] arrive unboxed and take
   the same steps as a fed record of the same class; records go to
   [feed]. *)
let tracer t =
  Trace.create_handler ~classes:required_classes
    ~occ:(fun _cls ~time ~component:_ ~flow:_ ~occ_bytes ~occ_pkts:_ ->
      occ_event t ~now_ns:(advance t time) ~occ:occ_bytes)
    (feed t)

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    if t.records > 0 then flush_grid t ~upto_ns:t.last_t_ns ~inclusive:true;
    close_window t
  end

(* --- dominant frequency from the autocorrelation --------------------- *)

(* Minimum samples before the estimate means anything, and the minimum
   number of product pairs a lag must have accumulated to be usable. *)
let min_samples = 32
let min_pairs = 16
let rho_threshold = 0.1

type spectral =
  | Peak of { freq_hz : float; lag : int; rho : float }
  | No_peak of string

let spectral t =
  finalize t;
  let n = t.n_samples in
  if n < min_samples then
    No_peak
      (Printf.sprintf "series too short: %d samples (need >= %d)" n
         min_samples)
  else begin
    let var = t.fl.(f_m2) /. float_of_int n in
    if var <= 0. then No_peak "no variation: occupancy series is flat"
    else begin
      let mean2 = t.fl.(f_mean) *. t.fl.(f_mean) in
      let usable = Stdlib.min max_lag (n - min_pairs) in
      let rho l =
        ((t.acc.(l - 1) /. float_of_int (n - l)) -. mean2) /. var
      in
      (* First lag where the autocorrelation goes negative ... *)
      let l0 = ref 0 in
      let l = ref 1 in
      while !l0 = 0 && !l <= usable do
        if rho !l < 0. then l0 := !l;
        incr l
      done;
      if !l0 = 0 then
        No_peak
          (Printf.sprintf
             "no oscillation: autocorrelation never goes negative within \
              %d lags"
             usable)
      else begin
        (* ... then the strongest positive recurrence beyond it. *)
        let best = ref 0 in
        let best_rho = ref neg_infinity in
        for l = !l0 + 1 to usable do
          let r = rho l in
          if r > !best_rho then begin
            best_rho := r;
            best := l
          end
        done;
        if !best = 0 || !best_rho < rho_threshold then
          No_peak
            (Printf.sprintf
               "no dominant period: peak autocorrelation %.3f below %.1f"
               (if !best = 0 then 0. else !best_rho)
               rho_threshold)
        else
          Peak
            {
              freq_hz = 1e9 /. float_of_int (!best * t.period_ns);
              lag = !best;
              rho = !best_rho;
            }
      end
    end
  end

let spectrum_note t =
  match spectral t with Peak _ -> None | No_peak note -> Some note

(* --- output -------------------------------------------------------- *)

let duration_s t =
  if t.records < 2 then 0.
  else float_of_int (t.last_t_ns - t.first_t_ns) /. 1e9

let summary_occ_std t =
  if t.n_samples = 0 then 0. else sqrt (t.fl.(f_m2) /. float_of_int t.n_samples)

type summary = {
  records : int;
  duration_s : float;
  occ_mean_pkts : float;
  occ_std_pkts : float;
  cycles : int;
  amp_mean_pkts : float;
  amp_max_pkts : float;
  period_mean_s : float;
  flip_rate_hz : float;
  sync_mean : float;
  sync_max : float;
  dominant_freq_hz : float option;
}

let summary t =
  finalize t;
  let seg = float_of_int t.cfg.segment_bytes in
  let dur = duration_s t in
  let cyc = float_of_int t.cycles in
  {
    records = t.records;
    duration_s = dur;
    occ_mean_pkts = t.fl.(f_mean) /. seg;
    occ_std_pkts = summary_occ_std t /. seg;
    cycles = t.cycles;
    amp_mean_pkts =
      (if t.cycles = 0 then 0. else t.fl.(f_amp_sum) /. cyc /. seg);
    amp_max_pkts = float_of_int t.amp_max /. seg;
    period_mean_s =
      (if t.cycles = 0 then 0. else t.fl.(f_period_sum_ns) /. cyc /. 1e9);
    flip_rate_hz = (if dur > 0. then float_of_int t.flips /. dur else 0.);
    sync_mean =
      (if t.active_windows = 0 then 0.
       else t.fl.(f_sync_sum) /. float_of_int t.active_windows);
    sync_max = t.fl.(f_sync_max);
    dominant_freq_hz =
      (match spectral t with
      | Peak { freq_hz; _ } -> Some freq_hz
      | No_peak _ -> None);
  }

let hist_to_json h =
  let entries = ref [] in
  for b = hist_bins - 1 downto 0 do
    if h.(b) > 0 then
      entries := Json.List [ Json.Int (1 lsl b); Json.Int h.(b) ] :: !entries
  done;
  Json.List !entries

let config_to_fields cfg =
  [
    ("sample_period_ns", Json.Int (Int64.to_int cfg.sample_period));
    ( "band_low_bytes",
      match cfg.band_bytes with
      | Some (lo, _) -> Json.Int lo
      | None -> Json.Null );
    ( "band_high_bytes",
      match cfg.band_bytes with
      | Some (_, hi) -> Json.Int hi
      | None -> Json.Null );
    ("n_flows", Json.Int cfg.n_flows);
    ("rtt_ns", Json.Int (Int64.to_int cfg.rtt));
    ("segment_bytes", Json.Int cfg.segment_bytes);
  ]

let to_json t =
  finalize t;
  let s = summary t in
  let windows =
    if t.records = 0 then 0
    else ((t.last_t_ns - t.first_t_ns) / t.rtt_ns) + 1
  in
  let freq, period_s, rho, lag, note =
    match spectral t with
    | Peak { freq_hz; lag; rho } ->
        ( Json.Float freq_hz,
          Json.Float (1. /. freq_hz),
          Json.Float rho,
          Json.Int lag,
          Json.Null )
    | No_peak n -> (Json.Null, Json.Null, Json.Null, Json.Null, Json.String n)
  in
  Json.Obj
    [
      ("config", Json.Obj (config_to_fields t.cfg));
      ("records", Json.Int t.records);
      ("duration_s", Json.Float s.duration_s);
      ( "occupancy",
        Json.Obj
          [
            ("samples", Json.Int t.n_samples);
            ("mean_bytes", Json.Float t.fl.(f_mean));
            ("std_bytes", Json.Float (summary_occ_std t));
            ( "min_bytes",
              Json.Int (if t.min_occ = max_int then 0 else t.min_occ) );
            ("max_bytes", Json.Int t.max_occ);
            ("mean_pkts", Json.Float s.occ_mean_pkts);
            ("std_pkts", Json.Float s.occ_std_pkts);
          ] );
      ( "cycles",
        Json.Obj
          [
            ("count", Json.Int t.cycles);
            ("amp_mean_pkts", Json.Float s.amp_mean_pkts);
            ("amp_max_pkts", Json.Float s.amp_max_pkts);
            ("period_mean_s", Json.Float s.period_mean_s);
            ("amp_hist_bytes_log2", hist_to_json t.amp_hist);
            ("period_hist_ns_log2", hist_to_json t.period_hist);
          ] );
      ( "marking",
        Json.Obj
          [
            ("flips", Json.Int t.flips);
            ("flips_up", Json.Int t.flips_up);
            ("flip_rate_hz", Json.Float s.flip_rate_hz);
          ] );
      ( "sync",
        Json.Obj
          [
            ("windows", Json.Int windows);
            ("active_windows", Json.Int t.active_windows);
            ("index_mean", Json.Float s.sync_mean);
            ("index_max", Json.Float s.sync_max);
          ] );
      ( "spectrum",
        Json.Obj
          [
            ("method", Json.String "autocorr");
            ("samples", Json.Int t.n_samples);
            ("max_lag", Json.Int max_lag);
            ("dominant_freq_hz", freq);
            ("dominant_period_s", period_s);
            ("peak_rho", rho);
            ("lag", lag);
            ("note", note);
          ] );
    ]

(* --- trace-file header --------------------------------------------- *)

module Header = struct
  type header = { config : config; classes : Trace.cls list }

  let version = 1

  let is_header j =
    match Json.member "trace_header" j with Some _ -> true | None -> false

  let to_json h =
    Json.Obj
      (("trace_header", Json.Int version)
      :: config_to_fields h.config
      @ [
          ( "classes",
            Json.List
              (List.map
                 (fun c -> Json.String (Trace.cls_name c))
                 h.classes) );
        ])

  let of_json j =
    let ( let* ) = Result.bind in
    let prefix = "trace header" in
    let field name = Json.field prefix name j in
    let int name = Json.int prefix name j in
    let opt_int name =
      let* v = field name in
      match v with
      | Json.Int i -> Ok (Some i)
      | Json.Null -> Ok None
      | _ -> Json.mistyped prefix name "int or null"
    in
    let* v = int "trace_header" in
    let* () =
      if v = version then Ok ()
      else Error (Printf.sprintf "trace header: unsupported version %d" v)
    in
    let* sample_period_ns = int "sample_period_ns" in
    let* band_low = opt_int "band_low_bytes" in
    let* band_high = opt_int "band_high_bytes" in
    let* band_bytes =
      match (band_low, band_high) with
      | Some lo, Some hi -> Ok (Some (lo, hi))
      | None, None -> Ok None
      | _ -> Error "trace header: half-open band"
    in
    let* n_flows = int "n_flows" in
    let* rtt_ns = int "rtt_ns" in
    let* segment_bytes = int "segment_bytes" in
    let* classes =
      let* v = field "classes" in
      match v with
      | Json.List items ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | Json.String s :: rest -> (
                match Trace.cls_of_name s with
                | Some c -> go (c :: acc) rest
                | None ->
                    Error
                      (Printf.sprintf "trace header: unknown class %S" s))
            | _ -> Error "trace header: classes must be strings"
          in
          go [] items
      | _ -> Json.mistyped prefix "classes" "list"
    in
    Ok
      {
        config =
          {
            sample_period = Int64.of_int sample_period_ns;
            band_bytes;
            n_flows;
            rtt = Int64.of_int rtt_ns;
            segment_bytes;
          };
        classes;
      }
end
