(* Tests for the resoc_check layer: ddmin minimization, injection-log mask
   semantics, FAIL_*.json round-trips, the invariant checkers themselves,
   mutation self-tests proving the checkers catch deliberately broken
   protocols (and pass the unbroken ones), checker transparency (enabling it
   never changes a run), and the end-to-end campaign auto-shrink path. *)

module Check = Resoc_check.Check
module Inject = Resoc_check.Inject
module Shrink = Resoc_check.Shrink
module Replay = Resoc_check.Replay
module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Register = Resoc_hw.Register
module Seu = Resoc_fault.Seu
module Transport = Resoc_repl.Transport
module Quorum = Resoc_repl.Quorum
module Pbft = Resoc_repl.Pbft
module Minbft = Resoc_repl.Minbft
module Stats = Resoc_repl.Stats
module Usig = Resoc_hybrid.Usig
module Batcher = Resoc_repl.Batcher
module Campaign = Resoc_campaign.Campaign
module Emit = Resoc_campaign.Emit

let with_check = Check_fixture.with_check
let fires = Check_fixture.fires
let contains = Check_fixture.contains
let mutant_flagged = Check_fixture.mutant_flagged
let with_fresh_dir = Check_fixture.with_fresh_dir

(* --- ddmin -------------------------------------------------------------- *)

let test_ddmin_pair () =
  let tests = ref 0 in
  let test keep =
    incr tests;
    List.mem 3 keep && List.mem 7 keep
  in
  let keep = List.sort compare (Shrink.ddmin ~test 12) in
  Alcotest.(check (list int)) "exact minimal pair" [ 3; 7 ] keep;
  Alcotest.(check bool) "bounded work" true (!tests <= 512)

let test_ddmin_empty_failing () =
  Alcotest.(check (list int)) "vacuous failure needs no events" []
    (Shrink.ddmin ~test:(fun _ -> true) 10)

let test_ddmin_single () =
  Alcotest.(check (list int)) "single culprit" [ 5 ]
    (List.sort compare (Shrink.ddmin ~test:(fun keep -> List.mem 5 keep) 9))

let test_ddmin_result_fails () =
  (* Whatever ddmin returns must itself be a failing schedule, even for
     awkward predicates and tiny budgets. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:50 ~name:"ddmin result still fails"
       QCheck.(pair (int_range 1 20) (list_of_size Gen.(1 -- 4) (int_bound 19)))
       (fun (n, culprits) ->
         let culprits = List.filter (fun c -> c < n) culprits in
         QCheck.assume (culprits <> []);
         let test keep = List.for_all (fun c -> List.mem c keep) culprits in
         let keep = Shrink.ddmin ~max_tests:64 ~test n in
         test keep))

(* --- injection log ------------------------------------------------------ *)

let test_inject_mask () =
  with_check (fun () ->
      let permit i = Inject.permit ~kind:Inject.Seu ~time:(10 * i) ~a:i ~b:0 in
      let granted = List.init 5 permit in
      Alcotest.(check (list bool)) "no mask grants all" [ true; true; true; true; true ] granted;
      Alcotest.(check int) "five occurrences logged" 5 (Inject.count ());
      Inject.begin_replicate ();
      Inject.set_mask ~total:5 [ 1; 3 ];
      let granted = List.init 7 permit in
      Alcotest.(check (list bool))
        "mask keeps listed indices, suppresses the rest and any overflow"
        [ false; true; false; true; false; false; false ]
        granted;
      Alcotest.(check int) "suppressed occurrences still logged" 7 (Inject.count ());
      Inject.begin_replicate ();
      Alcotest.(check int) "begin_replicate drops the log" 0 (Inject.count ());
      Alcotest.(check bool) "and the mask" true (permit 0))

let test_inject_inactive () =
  Alcotest.(check bool) "inactive permit grants" true
    (Inject.permit ~kind:Inject.Trojan ~time:0 ~a:0 ~b:0);
  Alcotest.(check int) "and logs nothing" 0 (Inject.count ())

(* --- FAIL json round-trip ----------------------------------------------- *)

let sample_record =
  {
    Replay.experiment = "e6";
    cell = "reactive/\"max\"";
    seed = -3L;
    error = "invariant violation: agreement at (0,3)\nbacktrace";
    total_events = 41;
    keep = [ 2; 17 ];
    events =
      [
        { Replay.kind = Inject.Seu; time = 120; a = 3; b = 17; kept = true };
        { Replay.kind = Inject.Apt; time = 999; a = 1; b = 0; kept = false };
        { Replay.kind = Inject.Trojan; time = 1000; a = 2; b = 0; kept = true };
      ];
  }

let test_replay_roundtrip () =
  let rt = Replay.of_json (Replay.to_json sample_record) in
  Alcotest.(check bool) "round-trips" true (rt = sample_record);
  Alcotest.(check string) "filename" "FAIL_e6_reactive__max__-3.json"
    (Replay.filename sample_record)

(* [soc_sim run] and [soc_sim scenario <name>] share experiment and seed;
   only the cell tells their records apart. *)
let test_replay_filename_per_cell () =
  let record cell = { sample_record with Replay.experiment = "soc_sim"; cell; seed = 1L } in
  Alcotest.(check string) "run" "FAIL_soc_sim_run_1.json" (Replay.filename (record "run"));
  Alcotest.(check string) "scenario" "FAIL_soc_sim_scenario_space_1.json"
    (Replay.filename (record "scenario/space"))

let test_replay_write_read () =
  with_fresh_dir (fun dir ->
      let path = Replay.write ~dir sample_record in
      Alcotest.(check bool) "file lands under dir" true (Filename.dirname path = dir);
      Alcotest.(check bool) "read back equal" true (Replay.read path = sample_record))

(* --- invariant units ---------------------------------------------------- *)

let test_agreement () =
  with_check (fun () ->
      let s = Check.new_session ~protocol:"unit" in
      let commit ~replica ~view ~seq ~digest =
        Check.commit ~session:s ~replica ~view ~seq ~digest ~signers:3 ~quorum:3 ~faulty:false
      in
      commit ~replica:0 ~view:0 ~seq:1 ~digest:11L;
      commit ~replica:1 ~view:0 ~seq:1 ~digest:11L;
      commit ~replica:0 ~view:1 ~seq:1 ~digest:22L;
      Alcotest.(check bool) "same slot, different digest" true
        (fires (fun () -> commit ~replica:2 ~view:0 ~seq:1 ~digest:22L));
      Alcotest.(check bool) "faulty replicas may lie" false
        (fires (fun () ->
             Check.commit ~session:s ~replica:3 ~view:0 ~seq:1 ~digest:33L ~signers:3 ~quorum:3
               ~faulty:true)))

let test_quorum_certificate () =
  with_check (fun () ->
      let s = Check.new_session ~protocol:"unit" in
      Alcotest.(check bool) "thin certificate" true
        (fires (fun () ->
             Check.commit ~session:s ~replica:0 ~view:0 ~seq:1 ~digest:1L ~signers:2 ~quorum:3
               ~faulty:false));
      Alcotest.(check bool) "certificate-free protocols skip the check" false
        (fires (fun () ->
             Check.commit ~session:s ~replica:0 ~view:0 ~seq:2 ~digest:1L ~signers:(-1) ~quorum:3
               ~faulty:false)))

let test_counter_issuance () =
  with_check (fun () ->
      let h = Check.new_hybrid ~name:"usig" in
      Check.counter_issued ~hybrid:h ~read:0L ~issued:1L ~digest:10L;
      Check.counter_issued ~hybrid:h ~read:1L ~issued:2L ~digest:20L;
      Alcotest.(check bool) "re-issue to a different digest is equivocation" true
        (fires (fun () -> Check.counter_issued ~hybrid:h ~read:2L ~issued:2L ~digest:30L));
      let h = Check.new_hybrid ~name:"usig" in
      Check.counter_issued ~hybrid:h ~read:0L ~issued:1L ~digest:10L;
      Alcotest.(check bool) "regression" true
        (fires (fun () -> Check.counter_issued ~hybrid:h ~read:1L ~issued:0L ~digest:40L));
      (* An SEU that corrupts the register shows up as a readback that differs
         from the last issued value; the tracker resyncs instead of firing. *)
      let h = Check.new_hybrid ~name:"usig" in
      Check.counter_issued ~hybrid:h ~read:0L ~issued:1L ~digest:10L;
      Alcotest.(check bool) "perturbed readback forgiven" false
        (fires (fun () -> Check.counter_issued ~hybrid:h ~read:9L ~issued:10L ~digest:50L)))

let test_a2m_and_noc () =
  with_check (fun () ->
      let h = Check.new_hybrid ~name:"a2m" in
      Check.a2m_append ~hybrid:h ~seq:1L ~digest:1L;
      Check.a2m_append ~hybrid:h ~seq:2L ~digest:2L;
      Alcotest.(check bool) "a2m gap" true
        (fires (fun () -> Check.a2m_append ~hybrid:h ~seq:4L ~digest:4L));
      let n = Check.new_network () in
      Check.flit_injected ~net:n;
      Check.flit_delivered ~net:n;
      Alcotest.(check bool) "phantom delivery" true
        (fires (fun () -> Check.flit_dropped ~net:n)))

(* --- mutation self-tests ------------------------------------------------ *)

let run_pbft () =
  let engine = Engine.create () in
  let config = { Pbft.default_config with f = 1; n_clients = 1 } in
  let fabric = Transport.hub engine ~n:(Pbft.n_replicas config + 1) () in
  let sys = Pbft.start engine fabric config () in
  for i = 1 to 4 do
    Pbft.submit sys ~client:0 ~payload:(Int64.of_int i)
  done;
  Engine.run ~until:200_000 engine;
  (Pbft.stats sys).Stats.completed

let run_minbft ~seed ~count =
  let engine = Engine.create ~seed () in
  let config = { Minbft.default_config with n_clients = 1 } in
  let n = Minbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 1) () in
  let sys = Minbft.start engine fabric config () in
  for i = 1 to count do
    Minbft.submit sys ~client:0 ~payload:(Int64.of_int i)
  done;
  Engine.run ~until:200_000 engine;
  (engine, sys, n)

let test_mutant_broken_quorum () =
  with_check (fun () ->
      Alcotest.(check bool) "unmutated pbft passes" true (run_pbft () = 4);
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0);
      Check.begin_replicate ();
      Fun.protect
        ~finally:(fun () -> Quorum.test_quorum_slack := 0)
        (fun () ->
          (* Accept f+1 commit votes where 2f+1 are required. *)
          Quorum.test_quorum_slack := 1;
          match run_pbft () with
          | _ -> Alcotest.fail "broken quorum not flagged"
          | exception Check.Violation msg ->
            Alcotest.(check bool) "names the quorum invariant" true (contains ~sub:"quorum" msg)))

let test_mutant_usig_reissue () =
  with_check (fun () ->
      let _, sys, _ = run_minbft ~seed:7L ~count:4 in
      Alcotest.(check int) "unmutated minbft passes" 4 (Minbft.stats sys).Stats.completed;
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0);
      mutant_flagged ~knob:Usig.test_reissue ~sub:"counter" (fun () ->
          ignore (run_minbft ~seed:7L ~count:4)))

let run_pbft_batched () =
  let engine = Engine.create () in
  let batching =
    Some { Resoc_repl.Types.window_cycles = 50; max_batch = 4; pipeline_depth = 2 }
  in
  let config = { Pbft.default_config with f = 1; n_clients = 4; batching } in
  let fabric = Transport.hub engine ~n:(Pbft.n_replicas config + 4) () in
  let sys = Pbft.start engine fabric config () in
  for c = 0 to 3 do
    for i = 1 to 3 do
      Pbft.submit sys ~client:c ~payload:(Int64.of_int ((c * 10) + i))
    done
  done;
  Engine.run ~until:200_000 engine;
  (Pbft.stats sys).Stats.completed

let test_mutant_batch_duplicate () =
  with_check (fun () ->
      Alcotest.(check int) "unmutated batched pbft passes" 12 (run_pbft_batched ());
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0);
      (* Re-inject the first request of every sealed batch into the next
         one: the same request is agreed in two instances. *)
      mutant_flagged ~knob:Batcher.test_duplicate_first ~sub:"batch atomicity" (fun () ->
          ignore (run_pbft_batched ())))

(* MinBFT's legacy [batch_window]: the primary receives every request
   once from the client and once per forwarding backup, and each copy
   must land in at most one batch. Every Prepare on the wire is checked
   for a repeated (client, rid), and the checker for atomicity. *)
let test_legacy_window_no_duplicates () =
  with_check (fun () ->
      let engine = Engine.create ~seed:13L () in
      let config = { Minbft.default_config with n_clients = 8; batch_window = 50; max_batch = 16 } in
      let n = Minbft.n_replicas config in
      let hub = Transport.hub engine ~n:(n + 8) () in
      let repeated = ref 0 in
      let send ~src ~dst msg =
        (match msg with
        | Minbft.Prepare { requests; _ } ->
          let ids = List.map (fun (r : Resoc_repl.Types.request) -> (r.client, r.rid)) requests in
          if List.length (List.sort_uniq compare ids) <> List.length ids then incr repeated
        | _ -> ());
        hub.Transport.send ~src ~dst msg
      in
      let sys = Minbft.start engine { hub with Transport.send } config () in
      for c = 0 to 7 do
        for i = 1 to 10 do
          Minbft.submit sys ~client:c ~payload:(Int64.of_int ((c * 100) + i))
        done
      done;
      Engine.run ~until:600_000 engine;
      Alcotest.(check int) "every request completes" 80 (Minbft.stats sys).Stats.completed;
      Alcotest.(check int) "no batch repeats a request" 0 !repeated;
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0))

(* --- transparency ------------------------------------------------------- *)

let minbft_fingerprint ~seed ~count =
  let engine, sys, n = run_minbft ~seed ~count in
  ( (Minbft.stats sys).Stats.completed,
    Engine.events_processed engine,
    List.init n (fun r -> Minbft.replica_state sys ~replica:r) )

let prop_checking_is_transparent =
  QCheck.Test.make ~name:"enabling the checker never changes a MinBFT run" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, count) ->
      let seed = Int64.of_int (seed + 1) in
      let base = minbft_fingerprint ~seed ~count in
      let checked = with_check (fun () -> minbft_fingerprint ~seed ~count) in
      base = checked)

let minbft_cell =
  Campaign.cell "minbft" (fun ~seed ->
      let _, sys, _ = run_minbft ~seed ~count:3 in
      [ ("completed", float_of_int (Minbft.stats sys).Stats.completed) ])

let campaign_json ~check =
  with_fresh_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let config = { Campaign.default_config with replicates = 6; jobs = 2; check } in
      let result = Campaign.run ~config ~id:"chk" ~title:"transparency" [ minbft_cell ] in
      let path = Emit.json_file ~dir result in
      In_channel.with_open_bin path In_channel.input_all)

let test_bench_json_transparent () =
  let base = campaign_json ~check:false in
  let checked = with_check (fun () -> campaign_json ~check:true) in
  Alcotest.(check string) "BENCH json byte-identical, checker on vs off" base checked

(* --- end-to-end campaign shrink ----------------------------------------- *)

(* A replicate whose only failure mode is SEU corruption of register 0: any
   single surviving upset on it reproduces, so ddmin must land on one event. *)
let seu_cell =
  Campaign.cell "seu" (fun ~seed ->
      let engine = Engine.create () in
      let rng = Rng.create seed in
      let regs = Array.init 8 (fun _ -> Register.create Register.Plain 0L) in
      let seu = Seu.start engine rng ~rate_per_bit_cycle:1e-5 regs in
      Engine.run ~until:20_000 engine;
      Seu.halt seu;
      (match Register.read regs.(0) with
      | 0L, _ -> ()
      | _ -> failwith "register 0 corrupted");
      [ ("injected", float_of_int (Seu.injected seu)) ])

(* [cell] as a checked, shrinking campaign: the failed-replicate count and
   the FAIL records it wrote. *)
let shrink_campaign ~id ?(jobs = 1) ~replicates cell =
  with_fresh_dir (fun dir ->
      let config =
        {
          Campaign.default_config with
          replicates;
          jobs;
          check = true;
          shrink = true;
          fail_dir = Some dir;
        }
      in
      let result = Campaign.run ~config ~id ~title:id [ cell ] in
      ( List.fold_left (fun acc agg -> acc + Campaign.failures agg) 0 result.Campaign.cells,
        Sys.readdir dir |> Array.to_list
        |> List.map (fun f -> Replay.read (Filename.concat dir f)) ))

let test_campaign_shrink () =
  with_check (fun () ->
      let failures, records = shrink_campaign ~id:"shrinke2e" ~jobs:2 ~replicates:4 seu_cell in
      Alcotest.(check bool) "some replicate hit register 0" true (failures > 0);
      Alcotest.(check int) "one FAIL file per failed replicate" failures (List.length records);
      let rt = List.hd records in
      Alcotest.(check string) "experiment recorded" "shrinke2e" rt.Replay.experiment;
      Alcotest.(check bool) "shrunk to <= 3 events" true (List.length rt.Replay.keep <= 3);
      Alcotest.(check bool) "schedule shrank" true
        (List.length rt.Replay.keep < rt.Replay.total_events);
      (* The minimal schedule reproduces under its mask. *)
      let reproduced =
        Replay.attempt ~mask:(rt.Replay.total_events, rt.Replay.keep) (fun () ->
            ignore (seu_cell.Campaign.run ~seed:rt.Replay.seed))
      in
      Alcotest.(check bool) "masked replay reproduces" true (reproduced <> None))

(* The broken-quorum mutant through the full campaign path: every replicate
   is flagged, and since no injection events are involved the schedule
   shrinks to the empty repro log. *)
let test_campaign_shrink_quorum_mutant () =
  with_check (fun () ->
      let cell =
        Campaign.cell "broken-quorum" (fun ~seed ->
            ignore seed;
            Quorum.test_quorum_slack := 1;
            Fun.protect
              ~finally:(fun () -> Quorum.test_quorum_slack := 0)
              (fun () ->
                ignore (run_pbft ());
                [ ("ok", 1.0) ]))
      in
      let failures, records = shrink_campaign ~id:"quorumx" ~replicates:2 cell in
      Alcotest.(check int) "every replicate flagged" 2 failures;
      Alcotest.(check int) "FAIL file per replicate" 2 (List.length records);
      let rt = List.hd records in
      Alcotest.(check bool) "error names quorum" true (contains ~sub:"quorum" rt.Replay.error);
      Alcotest.(check bool) "<= 3-event repro" true (List.length rt.Replay.keep <= 3))

(* --- the driver: attempt and shrink -------------------------------------- *)

let unmasked () = Inject.permit ~kind:Inject.Seu ~time:0 ~a:0 ~b:0

let test_driver_clean () =
  with_check (fun () ->
      ignore (Replay.attempt ~mask:(1, []) ignore);
      Alcotest.(check bool) "mask installed" false (unmasked ());
      let record = Replay.shrink ~experiment:"x" ~cell:"clean" ~seed:1L ignore in
      Alcotest.(check bool) "a clean run shrinks to nothing" true (record = None);
      Alcotest.(check bool) "no mask left behind" true (unmasked ()))

(* The first seed whose unmasked SEU replicate fails. *)
let failing_seu_seed () =
  let run seed () = ignore (seu_cell.Campaign.run ~seed) in
  let rec go seed = if Replay.attempt (run seed) <> None then seed else go (Int64.succ seed) in
  go 1L

let test_driver_shrink_roundtrip () =
  with_check (fun () ->
      let seed = failing_seu_seed () in
      let run () = ignore (seu_cell.Campaign.run ~seed) in
      let record =
        match Replay.shrink ~experiment:"driver" ~cell:"seu" ~seed run with
        | Some r -> r
        | None -> Alcotest.fail "a failing replicate must shrink to a record"
      in
      Alcotest.(check bool) "no mask left behind" true (unmasked ());
      Alcotest.(check bool) "schedule shrank" true
        (record.Replay.keep <> [] && List.length record.keep < record.total_events);
      let rt = with_fresh_dir (fun dir -> Replay.read (Replay.write ~dir record)) in
      Alcotest.(check bool) "write/read round trip" true (rt = record);
      Alcotest.(check (option string)) "replay reproduces the recorded error" (Some rt.error)
        (Replay.attempt ~mask:(rt.total_events, rt.keep) run))

let test_driver_empty_keep () =
  with_check (fun () ->
      let seed = failing_seu_seed () in
      let total = Inject.count () in
      let run () = ignore (seu_cell.Campaign.run ~seed) in
      Alcotest.(check bool) "the failure needs an injection" true (total > 0);
      Alcotest.(check (option string)) "an empty keep runs clean" None
        (Replay.attempt ~mask:(total, []) run))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_check"
    [
      ( "ddmin",
        [
          Alcotest.test_case "minimal pair" `Quick test_ddmin_pair;
          Alcotest.test_case "empty failing" `Quick test_ddmin_empty_failing;
          Alcotest.test_case "single culprit" `Quick test_ddmin_single;
          Alcotest.test_case "result always fails" `Quick test_ddmin_result_fails;
        ] );
      ( "inject",
        [
          Alcotest.test_case "mask semantics" `Quick test_inject_mask;
          Alcotest.test_case "inactive is free" `Quick test_inject_inactive;
        ] );
      ( "replay",
        [
          Alcotest.test_case "json round-trip" `Quick test_replay_roundtrip;
          Alcotest.test_case "filename per cell" `Quick test_replay_filename_per_cell;
          Alcotest.test_case "write/read" `Quick test_replay_write_read;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "agreement" `Quick test_agreement;
          Alcotest.test_case "quorum certificates" `Quick test_quorum_certificate;
          Alcotest.test_case "counter issuance" `Quick test_counter_issuance;
          Alcotest.test_case "a2m and noc" `Quick test_a2m_and_noc;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "broken quorum flagged" `Quick test_mutant_broken_quorum;
          Alcotest.test_case "usig re-issue flagged" `Quick test_mutant_usig_reissue;
          Alcotest.test_case "batch duplicate flagged" `Quick test_mutant_batch_duplicate;
          Alcotest.test_case "legacy window batches each request once" `Quick
            test_legacy_window_no_duplicates;
        ] );
      ( "transparency",
        [ Alcotest.test_case "BENCH json identical" `Quick test_bench_json_transparent ] );
      qsuite "transparency-prop" [ prop_checking_is_transparent ];
      ( "shrink-e2e",
        [
          Alcotest.test_case "campaign auto-shrink" `Quick test_campaign_shrink;
          Alcotest.test_case "quorum mutant shrunk" `Quick test_campaign_shrink_quorum_mutant;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clean run, no mask left" `Quick test_driver_clean;
          Alcotest.test_case "shrunk record replays" `Quick test_driver_shrink_roundtrip;
          Alcotest.test_case "empty keep runs clean" `Quick test_driver_empty_keep;
        ] );
    ]
