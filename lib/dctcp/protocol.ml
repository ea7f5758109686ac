type t = {
  name : string;
  cc : Tcp.Cc.factory;
  marking : ?on_flip:Marking_policies.flip_callback -> unit -> Net.Marking.t;
}

let dctcp_cc ?g () =
  let d = Dctcp_cc.default_params in
  Dctcp_cc.cc
    ~params:{ d with Dctcp_cc.g = Option.value g ~default:d.Dctcp_cc.g }
    ()

let dctcp ?g ~k_bytes () =
  {
    name = "DCTCP";
    cc = dctcp_cc ?g ();
    marking =
      (fun ?on_flip:_ () -> Marking_policies.single_threshold ~k_bytes);
  }

let dt_dctcp ?g ~k1_bytes ~k2_bytes () =
  {
    name = "DT-DCTCP";
    cc = dctcp_cc ?g ();
    marking =
      (fun ?on_flip () ->
        Marking_policies.double_threshold ?on_flip ~k1_bytes ~k2_bytes ());
  }

let dctcp_pkts ?g ~k () =
  dctcp ?g ~k_bytes:(Marking_policies.bytes_of_packets k) ()

let dt_dctcp_pkts ?g ~k1 ~k2 () =
  dt_dctcp ?g
    ~k1_bytes:(Marking_policies.bytes_of_packets k1)
    ~k2_bytes:(Marking_policies.bytes_of_packets k2)
    ()

let reno () =
  {
    name = "Reno";
    cc = Tcp.Cc.reno;
    marking = (fun ?on_flip:_ () -> Net.Marking.none ());
  }

let ecn_reno ~k_bytes =
  {
    name = "ECN-Reno";
    cc = Tcp.Cc.ecn_reno;
    marking =
      (fun ?on_flip:_ () -> Marking_policies.single_threshold ~k_bytes);
  }

let newreno () =
  {
    name = "NewReno";
    cc = Reno_cc.newreno;
    marking = (fun ?on_flip:_ () -> Net.Marking.none ());
  }

let dctcp_scaled ?g ~k_frac () =
  {
    name = "DCTCP";
    cc = dctcp_cc ?g ();
    marking =
      (fun ?on_flip:_ () -> Marking_policies.single_threshold_scaled ~k_frac);
  }

let dt_dctcp_scaled ?g ~k1_frac ~k2_frac () =
  {
    name = "DT-DCTCP";
    cc = dctcp_cc ?g ();
    marking =
      (fun ?on_flip () ->
        Marking_policies.double_threshold_scaled ?on_flip ~k1_frac ~k2_frac ());
  }
