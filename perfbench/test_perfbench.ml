(* Unit tests for the benchmark's own code: the digest normalisation its
   output check rests on. The order statistics it reports come from
   Stats.Percentile, which test/test_stats.ml covers. *)

module D = Perfbench.Digests

let manifest ?(wall = 1.5) ?(events = 1000) ?(timeouts = 3.) () =
  Obs.Manifest.make ~name:"fig_queue/dctcp/n=10" ~seed:1L
    ~params:[ ("spec", Obs.Json.String "...") ]
    ~wall_clock_s:wall ~events
    ~metrics:[ ("sender.timeouts", timeouts); ("engine.events_processed", 1000.) ]
    ~analysis:(Obs.Json.Obj [ ("cycles", Obs.Json.Int 12) ])
    ()

let result = Obs.Json.Obj [ ("slowdown_p99", Obs.Json.Float 17.7) ]

let test_normalise () =
  let fields j =
    match D.normalise (Obs.Manifest.to_json j) with
    | Obs.Json.Obj f -> List.map fst f
    | _ -> []
  in
  Alcotest.(check (list string))
    "host timing dropped, the rest kept in order"
    [ "name"; "seed"; "params"; "events"; "metrics"; "analysis" ]
    (fields (manifest ()))

let test_host_timing_ignored () =
  let a = D.entry (manifest ~wall:1.5 ()) ~result
  and b = D.entry (manifest ~wall:2.75 ()) ~result in
  Alcotest.(check bool) "equal despite wall clock" true (D.equal a b);
  Alcotest.(check (array bool))
    "no mismatch" [| false |]
    (D.mismatches ~expected:[| a |] [| b |])

let test_count_change_detected () =
  let base = D.entry (manifest ()) ~result in
  let more_events = D.entry (manifest ~events:1001 ()) ~result in
  let more_timeouts = D.entry (manifest ~timeouts:4. ()) ~result in
  let other_result =
    D.entry (manifest ())
      ~result:(Obs.Json.Obj [ ("slowdown_p99", Obs.Json.Float 17.8) ])
  in
  Alcotest.(check bool) "events" false (D.equal base more_events);
  Alcotest.(check bool) "metric" false (D.equal base more_timeouts);
  Alcotest.(check bool) "result" false (D.equal base other_result);
  Alcotest.(check (array bool))
    "mismatch flagged, missing expectation flagged" [| true; true |]
    (D.mismatches ~expected:[| base |] [| more_events; base |])

let test_entries_round_trip () =
  let es = [| D.entry (manifest ()) ~result; D.entry (manifest ~events:7 ()) ~result |] in
  match D.of_json_entries (D.to_json es) with
  | Ok back ->
      Alcotest.(check bool) "same entries" true (Array.for_all2 D.equal es back)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "perfbench"
    [
      ( "digests",
        [
          Alcotest.test_case "normalise" `Quick test_normalise;
          Alcotest.test_case "host timing ignored" `Quick
            test_host_timing_ignored;
          Alcotest.test_case "changed count detected" `Quick
            test_count_change_detected;
          Alcotest.test_case "entries round-trip" `Quick test_entries_round_trip;
        ] );
    ]
