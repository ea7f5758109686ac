module Event_class = Engine.Event_class

let default_sample_every = 32
let hist_bins = 63

let log2_bin v =
  let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
  go 0 v

type t = {
  sample_every : int;
  counts : int array;  (* every executed event, per class *)
  mutable total : int;
  sampled : int array;  (* timed events, per class *)
  time_s : float array;  (* summed wall-clock of timed events *)
  hist : int array array;  (* per class, log2-binned duration in ns *)
  (* in-flight sample: wall-clock at [before], the class it was taken
     for, and whether one is pending. Events never nest (the engine
     executes actions sequentially), so one slot suffices. [t0] lives in
     a float array so storing a reading never re-boxes it. *)
  t0 : float array;
  mutable pending_cls : int;
  mutable pending : bool;
}

let create ?(sample_every = default_sample_every) () =
  if sample_every <= 0 then
    invalid_arg "Obs.Selfprof.create: sample_every must be positive";
  {
    sample_every;
    counts = Array.make Event_class.count 0;
    total = 0;
    sampled = Array.make Event_class.count 0;
    time_s = Array.make Event_class.count 0.;
    hist = Array.init Event_class.count (fun _ -> Array.make hist_bins 0);
    t0 = [| 0. |];
    pending_cls = 0;
    pending = false;
  }

let before t cls =
  t.counts.(cls) <- t.counts.(cls) + 1;
  t.total <- t.total + 1;
  if t.total mod t.sample_every = 0 then begin
    t.pending_cls <- cls;
    t.pending <- true;
    t.t0.(0) <- Profile.wall_clock ()
  end

let after t cls =
  if t.pending && cls = t.pending_cls then begin
    let dt = Profile.wall_clock () -. t.t0.(0) in
    t.pending <- false;
    if dt >= 0. then begin
      t.sampled.(cls) <- t.sampled.(cls) + 1;
      t.time_s.(cls) <- t.time_s.(cls) +. dt;
      let ns = int_of_float (dt *. 1e9) in
      t.hist.(cls).(log2_bin ns) <- t.hist.(cls).(log2_bin ns) + 1
    end
  end

let attach t sim =
  Engine.Sim.set_profiler sim
    ~before:(fun cls -> before t cls)
    ~after:(fun cls -> after t cls)

let total t = t.total
let count t cls = t.counts.(Event_class.index cls)

let mean_us t cls =
  let i = Event_class.index cls in
  if t.sampled.(i) = 0 then 0.
  else t.time_s.(i) /. float_of_int t.sampled.(i) *. 1e6

let sampled_total t = Array.fold_left ( + ) 0 t.sampled

let hist_to_json h =
  let entries = ref [] in
  for b = hist_bins - 1 downto 0 do
    if h.(b) > 0 then
      entries := Json.List [ Json.Int (1 lsl b); Json.Int h.(b) ] :: !entries
  done;
  Json.List !entries

let to_json t =
  let classes =
    Array.to_list
      (Array.map
         (fun cls ->
           let i = Event_class.index cls in
           let mean_us =
             if t.sampled.(i) = 0 then 0.
             else t.time_s.(i) /. float_of_int t.sampled.(i) *. 1e6
           in
           Json.Obj
             [
               ("class", Json.String (Event_class.name cls));
               ("count", Json.Int t.counts.(i));
               ("sampled", Json.Int t.sampled.(i));
               ("time_s", Json.Float t.time_s.(i));
               ("mean_us", Json.Float mean_us);
               ("hist_ns_log2", hist_to_json t.hist.(i));
             ])
         Event_class.all)
  in
  Json.Obj
    [
      ("sample_every", Json.Int t.sample_every);
      ("events_total", Json.Int t.total);
      ("events_sampled", Json.Int (sampled_total t));
      ("classes", Json.List classes);
    ]
