(* Tests for the resoc_campaign Monte-Carlo campaign runner: Student-t /
   Wilson statistics against known references, seed-tree consistency with
   Rng.split, per-replicate failure capture, and the central determinism
   property — aggregates are bit-identical regardless of worker count. *)

module Campaign = Resoc_campaign.Campaign
module Stats = Resoc_campaign.Stats
module Seed_tree = Resoc_campaign.Seed_tree
module Pool = Resoc_campaign.Pool
module Emit = Resoc_campaign.Emit
module Rng = Resoc_des.Rng

let feq ?(eps = 1e-3) a b = Float.abs (a -. b) <= eps

let check_feq ?eps msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %g, got %g" msg expected actual)
    true (feq ?eps expected actual)

(* --- Stats ------------------------------------------------------------ *)

let test_t95 () =
  check_feq "t95 df=1" 12.706 (Stats.t95 ~df:1);
  check_feq "t95 df=2" 4.303 (Stats.t95 ~df:2);
  check_feq "t95 df=5" 2.571 (Stats.t95 ~df:5);
  check_feq "t95 df=10" 2.228 (Stats.t95 ~df:10);
  check_feq "t95 df=15" 2.131 (Stats.t95 ~df:15);
  check_feq "t95 df=30" 2.042 (Stats.t95 ~df:30);
  check_feq "t95 df=1000" 1.960 (Stats.t95 ~df:1000);
  Alcotest.check_raises "t95 df=0" (Invalid_argument "Stats.t95: df must be positive")
    (fun () -> ignore (Stats.t95 ~df:0));
  for df = 1 to 30 do
    Alcotest.(check bool)
      (Printf.sprintf "t_quantile 0.95 df=%d matches the table" df)
      true
      (Float.abs (Stats.t_quantile ~df ~p:0.95 -. Stats.t95 ~df) < 6e-4)
  done;
  (* Tails far past the table: t(0.999, 10) = 4.587, t(0.9999, 15) = 5.239. *)
  let t3 ~df ~p = Float.round (Stats.t_quantile ~df ~p *. 1000.) /. 1000. in
  check_feq "t_quantile 0.999 df=10" 4.587 (t3 ~df:10 ~p:0.999);
  check_feq "t_quantile 0.9999 df=15" 5.239 (t3 ~df:15 ~p:0.9999)

let test_summarize () =
  let s = Stats.summarize [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check int) "n" 8 s.Stats.n;
  check_feq "mean" 5.0 s.Stats.mean;
  check_feq "stddev" 2.13809 s.Stats.stddev;
  check_feq "min" 2.0 s.Stats.min;
  check_feq "max" 9.0 s.Stats.max;
  (* t95(7) * stddev / sqrt 8 = 2.365 * 2.13809 / 2.82843 *)
  check_feq "ci95" 1.78787 s.Stats.ci95;
  let single = Stats.summarize [| 3.5 |] in
  Alcotest.(check int) "n=1" 1 single.Stats.n;
  check_feq "n=1 ci95" 0.0 single.Stats.ci95;
  Alcotest.(check int) "empty n" 0 (Stats.summarize [||]).Stats.n

let test_wilson () =
  let f = Stats.survival (Array.init 10 (fun i -> i < 5)) in
  Alcotest.(check int) "successes" 5 f.Stats.successes;
  check_feq "fraction" 0.5 f.Stats.fraction;
  check_feq "wilson 5/10 lo" 0.2366 f.Stats.lo;
  check_feq "wilson 5/10 hi" 0.7634 f.Stats.hi;
  let none = Stats.survival (Array.make 10 false) in
  check_feq "wilson 0/10 lo" 0.0 none.Stats.lo;
  check_feq "wilson 0/10 hi" 0.2775 none.Stats.hi;
  let all = Stats.survival (Array.make 10 true) in
  check_feq "wilson 10/10 lo" 0.7225 all.Stats.lo;
  check_feq "wilson 10/10 hi" 1.0 all.Stats.hi

(* --- Seed tree -------------------------------------------------------- *)

let test_derive_matches_split () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:50 ~name:"Rng.derive = repeated split"
       QCheck.(pair int64 (int_bound 20))
       (fun (seed, index) ->
         let parent = Rng.create seed in
         let child = ref (Rng.split parent) in
         for _ = 1 to index do
           child := Rng.split parent
         done;
         let derived = Rng.create (Rng.derive seed index) in
         List.for_all
           (fun _ -> Rng.int64 !child = Rng.int64 derived)
           [ (); (); (); (); () ]))

let test_seed_tree_distinct () =
  let seen = Hashtbl.create 64 in
  for cell = 0 to 7 do
    Array.iter
      (fun seed ->
        Alcotest.(check bool)
          (Printf.sprintf "duplicate seed %Ld" seed)
          false (Hashtbl.mem seen seed);
        Hashtbl.add seen seed ())
      (Seed_tree.replicate_seeds ~root:0x5EEDL ~cell ~n:8)
  done

(* --- Campaign running ------------------------------------------------- *)

(* A deterministic stand-in simulation: a few hundred draws from the
   replicate's rng, aggregated into metrics. *)
let toy_cell id =
  Campaign.cell id (fun ~seed ->
      let rng = Rng.create seed in
      let sum = ref 0.0 and hits = ref 0 in
      for _ = 1 to 200 do
        let v = Rng.float rng 1.0 in
        sum := !sum +. v;
        if v > 0.8 then incr hits
      done;
      [
        ("sum", !sum);
        ("hits", float_of_int !hits);
        ("survived", (if !hits > 30 then 1.0 else 0.0));
      ])

let strip (result : Campaign.result) =
  List.map
    (fun (agg : Campaign.aggregate) ->
      (agg.Campaign.cell_id, Array.to_list agg.Campaign.seeds, Array.to_list agg.Campaign.trials))
    result.Campaign.cells

let run_toy ~root_seed ~replicates ~jobs =
  Campaign.run
    ~config:{ Campaign.default_config with root_seed; replicates; jobs }
    ~id:"toy" ~title:"toy campaign"
    [ toy_cell "a"; toy_cell "b"; toy_cell "c" ]

let test_determinism_across_jobs () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:10 ~name:"same aggregates for 1, 2 and 4 domains"
       QCheck.(pair int64 (int_range 1 6))
       (fun (root_seed, replicates) ->
         let reference = strip (run_toy ~root_seed ~replicates ~jobs:1) in
         List.for_all
           (fun jobs -> strip (run_toy ~root_seed ~replicates ~jobs) = reference)
           [ 2; 4 ]))

(* Byte-identical emitted JSON across worker counts. *)
let test_json_across_jobs () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let (j1, c1), (j4, c4) =
    Check_fixture.with_fresh_dir (fun dir ->
        Sys.mkdir dir 0o755;
        let emit jobs =
          let result = run_toy ~root_seed:99L ~replicates:8 ~jobs in
          let path = Emit.json_file ~dir result in
          let csv = Emit.csv_file ~dir result in
          (read path, read csv)
        in
        let first = emit 1 in
        (first, emit 4))
  in
  Alcotest.(check string) "json identical across jobs" j1 j4;
  Alcotest.(check string) "csv identical across jobs" c1 c4;
  Alcotest.(check bool) "json non-trivial" true (String.length j1 > 100)

let test_failure_capture () =
  let bad =
    Campaign.cell "bad" (fun ~seed ->
        if Int64.rem seed 2L = 0L then failwith "replicate exploded";
        [ ("ok", 1.0) ])
  in
  let good = toy_cell "good" in
  let result =
    Campaign.run
      ~config:{ Campaign.default_config with root_seed = 0x5EEDL; replicates = 12; jobs = 3 }
      ~id:"fail" ~title:"failure capture" [ bad; good ]
  in
  match result.Campaign.cells with
  | [ bad_agg; good_agg ] ->
    Alcotest.(check int) "good cell has no failures" 0 (Campaign.failures good_agg);
    let failures = Campaign.failures bad_agg in
    Alcotest.(check bool) "some replicates failed" true (failures > 0);
    Alcotest.(check bool) "not all replicates failed" true (failures < 12);
    let ok = Campaign.metric bad_agg "ok" in
    Alcotest.(check int) "completed trials still aggregated" (12 - failures) ok.Stats.n;
    Array.iter
      (function
        | Campaign.Failed f ->
          Alcotest.(check bool) "failure message captured" true
            (String.length f.Pool.error > 0
            && String.length f.Pool.error >= String.length "replicate exploded")
        | Campaign.Completed _ -> ())
      bad_agg.Campaign.trials
  | _ -> Alcotest.fail "expected two cells"

let test_pool_order () =
  let results = Pool.map ~jobs:4 100 (fun i -> i * i) in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "slot order" (i * i) v
      | Error _ -> Alcotest.fail "unexpected failure")
    results

let () =
  Alcotest.run "campaign"
    [
      ( "stats",
        [
          Alcotest.test_case "student-t table" `Quick test_t95;
          Alcotest.test_case "summarize reference data" `Quick test_summarize;
          Alcotest.test_case "wilson interval references" `Quick test_wilson;
        ] );
      ( "seed-tree",
        [
          Alcotest.test_case "derive matches repeated split" `Quick test_derive_matches_split;
          Alcotest.test_case "leaf seeds distinct" `Quick test_seed_tree_distinct;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "determinism across worker counts" `Quick
            test_determinism_across_jobs;
          Alcotest.test_case "emitted files identical across jobs" `Quick test_json_across_jobs;
          Alcotest.test_case "failing replicate is recorded, not fatal" `Quick
            test_failure_capture;
          Alcotest.test_case "pool preserves index order" `Quick test_pool_order;
        ] );
    ]
