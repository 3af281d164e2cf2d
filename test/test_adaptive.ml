(* Model tests for adaptive NoC routing: the incrementally refreshed
   route tables equal an independent full BFS after every refresh,
   delivery exactly when a BFS reference says the endpoints are
   connected (on a fixed and on a live, changing topology), loop freedom
   and no-failed-component crossings (enforced by the checker on random
   topologies), the mutation knobs proving each NoC invariant fires,
   route-table epoch determinism across worker counts, and
   injection-log alignment of the link-failure campaign. *)

open Resoc_noc
module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Check = Resoc_check.Check
module Inject = Resoc_check.Inject
module Replay = Resoc_check.Replay
module Link_fault = Resoc_fault.Link_fault
module Campaign = Resoc_campaign.Campaign

let with_check f =
  Check_fixture.with_check f ~reset:(fun () ->
      Network.test_skip_up_check := false;
      Network.test_detour_loop := false;
      Network.test_blackhole := false)

let ref_reachable = Mesh_reference.reachable

(* Reference route tables: for every destination a reverse BFS over the
   up routers and up links that explores the predecessors of each
   dequeued router in the order above, left, right, below; the first
   router to reach [u] is [u]'s next hop. Written against the mesh's
   record API only (no shared code with Adaptive). Returns the
   [table.(u).(dst)] matrix and the ordered pairs with a route. *)
let ref_tables mesh =
  let n = Mesh.n_nodes mesh and w = Mesh.width mesh and h = Mesh.height mesh in
  let table = Array.make_matrix n n (-1) in
  let pairs = ref 0 in
  for dst = 0 to n - 1 do
    if Mesh.router_up mesh dst then begin
      table.(dst).(dst) <- dst;
      let q = Queue.create () in
      Queue.push dst q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        let x, y = Mesh.coord_of_id mesh v in
        List.iter
          (fun (ux, uy) ->
            if ux >= 0 && ux < w && uy >= 0 && uy < h then begin
              let u = Mesh.id_of_coord mesh ~x:ux ~y:uy in
              if
                table.(u).(dst) < 0
                && Mesh.router_up mesh u
                && Mesh.link_up mesh { Mesh.src = u; dst = v }
              then begin
                table.(u).(dst) <- v;
                incr pairs;
                Queue.push u q
              end
            end)
          [ (x, y - 1); (x - 1, y); (x + 1, y); (x, y + 1) ]
      done
    end
  done;
  (table, !pairs)

let tables_match ad mesh =
  let table, pairs = ref_tables mesh in
  let n = Mesh.n_nodes mesh in
  let ok = ref (Adaptive.reachable_pairs ad = pairs) in
  for cur = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if Adaptive.next_hop ad ~cur ~dst <> table.(cur).(dst) then ok := false
    done
  done;
  !ok

(* Fault scripts: (op, operand) pairs failing and repairing random links
   and routers (so a repair is often a no-op on an up component), plus
   repairs of an already-failed one, so epochs advance through both
   directions and a repaired component often had changed the tables. *)
let apply_op mesh (op, x) =
  let links = Mesh.real_link_ids mesh in
  let link () = Mesh.link_of_id mesh links.(x mod Array.length links) in
  let pick l = List.nth l (x mod List.length l) in
  match op with
  | 0 -> Mesh.fail_link mesh (link ())
  | 1 -> Mesh.repair_link mesh (link ())
  | 2 -> Mesh.fail_router mesh (x mod Mesh.n_nodes mesh)
  | 3 -> Mesh.repair_router mesh (x mod Mesh.n_nodes mesh)
  | 4 -> (
    match Mesh.failed_links mesh with [] -> () | l -> Mesh.repair_link mesh (pick l))
  | _ -> (
    match Mesh.failed_routers mesh with [] -> () | l -> Mesh.repair_router mesh (pick l))

let apply_ops mesh ops = List.iter (apply_op mesh) ops

let op_arb = QCheck.(pair (int_bound 5) small_nat)
let ops_gen = QCheck.(list_of_size (Gen.int_range 0 30) op_arb)

let adaptive_config = { Network.default_config with routing = Network.Adaptive }

(* Oracle scripts: a mesh from 1xn up to 8x8, then bursts of fault ops
   with one refresh after each burst; most bursts hold one flip (the
   incremental path), some several (the full recompute). *)
let oracle_gen =
  let open QCheck.Gen in
  let dims = pair (int_range 1 8) (int_range 1 8) in
  let burst =
    frequency [ (3, return 1); (1, int_range 2 4) ] >>= fun k -> list_repeat k (QCheck.gen op_arb)
  in
  pair dims (list_size (int_range 1 40) burst)

let print_oracle ((w, h), bursts) =
  Printf.sprintf "%dx%d %s" w h
    (String.concat " | "
       (List.map
          (fun b -> String.concat "," (List.map (fun (o, x) -> Printf.sprintf "%d:%d" o x) b))
          bursts))

let prop_tables_match_reference =
  QCheck.Test.make ~name:"refreshed tables equal a full reference BFS" ~count:300
    (QCheck.make ~print:print_oracle ~shrink:QCheck.Shrink.(pair nil list) oracle_gen)
    (fun ((w, h), bursts) ->
      let w = if w * h < 2 then 2 else w in
      let mesh = Mesh.create ~width:w ~height:h in
      let ad = Adaptive.create mesh in
      ignore (Adaptive.refresh ad);
      let ok = ref (tables_match ad mesh) in
      let refreshes = ref 1 in
      List.iter
        (fun burst ->
          let before = Mesh.epoch mesh in
          apply_ops mesh burst;
          if Mesh.epoch mesh <> before then incr refreshes;
          ignore (Adaptive.refresh ad);
          if not (tables_match ad mesh && Adaptive.recomputes ad = !refreshes) then ok := false)
        bursts;
      !ok)

(* The smallest case where a repaired link must take a route back: on a
   2x2 mesh router 3 reaches 0 through 1 (north before west); with link
   3 -> 1 down it goes through 2, and the repair must restore 1 even
   though the detour is just as short. *)
let test_link_up_retakes_tie () =
  let mesh = Mesh.create ~width:2 ~height:2 in
  let ad = Adaptive.create mesh in
  Alcotest.(check int) "fault-free: via 1" 1 (Adaptive.next_hop ad ~cur:3 ~dst:0);
  Mesh.fail_link mesh { Mesh.src = 3; dst = 1 };
  Alcotest.(check int) "link down: via 2" 2 (Adaptive.next_hop ad ~cur:3 ~dst:0);
  Mesh.repair_link mesh { Mesh.src = 3; dst = 1 };
  Alcotest.(check int) "link up: via 1 again" 1 (Adaptive.next_hop ad ~cur:3 ~dst:0)

(* Attach recording handlers; the returned function sends one message
   between every ordered pair, runs the engine dry and tells whether
   exactly the reference-connected pairs arrived. *)
let all_pairs_probe engine mesh net =
  let n = Mesh.n_nodes mesh in
  let got = Hashtbl.create 64 in
  for node = 0 to n - 1 do
    Network.attach net ~node (fun ~src _ -> Hashtbl.replace got (src, node) ())
  done;
  fun () ->
    Hashtbl.reset got;
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then Network.send net ~src ~dst ~bytes_:16 ()
      done
    done;
    Engine.run engine;
    let ok = ref true in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst && Hashtbl.mem got (src, dst) <> ref_reachable mesh ~src ~dst then
          ok := false
      done
    done;
    !ok

let prop_delivery_iff_connected =
  QCheck.Test.make ~name:"adaptive delivers exactly the BFS-connected pairs" ~count:60 ops_gen
    (fun ops ->
      let engine = Engine.create () in
      let mesh = Mesh.create ~width:4 ~height:4 in
      apply_ops mesh ops;
      let net = Network.create engine mesh adaptive_config in
      all_pairs_probe engine mesh net ())

let prop_counts_match_scans =
  QCheck.Test.make ~name:"O(1) failed counts equal the diagnostic scans" ~count:100 ops_gen
    (fun ops ->
      let mesh = Mesh.create ~width:4 ~height:4 in
      apply_ops mesh ops;
      Mesh.failed_link_count mesh = List.length (Mesh.failed_links mesh)
      && Mesh.failed_router_count mesh = List.length (Mesh.failed_routers mesh))

(* Checker invariants hold on arbitrary topologies: no violation on real
   adaptive traffic, and the hooks demonstrably observed it. *)
let prop_checked_clean =
  QCheck.Test.make ~name:"adaptive routing passes the NoC invariants" ~count:30 ops_gen
    (fun ops ->
      with_check (fun () ->
          let engine = Engine.create () in
          let mesh = Mesh.create ~width:4 ~height:4 in
          apply_ops mesh ops;
          let net = Network.create engine mesh adaptive_config in
          let n = Mesh.n_nodes mesh in
          for node = 0 to n - 1 do
            Network.attach net ~node (fun ~src:_ _ -> ())
          done;
          for src = 0 to n - 1 do
            Network.send net ~src ~dst:(n - 1 - src) ~bytes_:16 ()
          done;
          Engine.run engine;
          Check.hooks_fired () > 0))

(* Delivery-iff-connected on a live network: the topology flips between
   traffic bursts, so every burst after the first runs on tables the
   network refreshed through its mesh subscription, under the checker. *)
let prop_live_delivery_iff_connected =
  QCheck.Test.make ~name:"live network delivers exactly the BFS-connected pairs" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 6) ops_gen)
    (fun bursts ->
      with_check (fun () ->
          let engine = Engine.create () in
          let mesh = Mesh.create ~width:4 ~height:4 in
          let net = Network.create engine mesh adaptive_config in
          let probe = all_pairs_probe engine mesh net in
          let ok = ref true in
          List.iter
            (fun ops ->
              apply_ops mesh ops;
              if not (probe ()) then ok := false)
            bursts;
          !ok && Check.hooks_fired () > 0))

(* --- Mutation knobs: each NoC invariant must fire when its property is
   deliberately broken (DESIGN.md section 7 discipline). --- *)

let fires = Check_fixture.fires

let test_knob_skip_up_check () =
  with_check (fun () ->
      Network.test_skip_up_check := true;
      Alcotest.(check bool) "crossing a failed link fires" true
        (fires (fun () ->
             let engine = Engine.create () in
             let mesh = Mesh.create ~width:3 ~height:1 in
             let net = Network.create engine mesh Network.default_config in
             Network.attach net ~node:2 (fun ~src:_ _ -> ());
             Mesh.fail_link mesh { Mesh.src = 1; dst = 2 };
             Network.send net ~src:0 ~dst:2 ~bytes_:16 ();
             Engine.run engine)))

let test_knob_detour_loop () =
  with_check (fun () ->
      Network.test_detour_loop := true;
      Alcotest.(check bool) "routing loop fires" true
        (fires (fun () ->
             let engine = Engine.create () in
             let mesh = Mesh.create ~width:4 ~height:1 in
             let net = Network.create engine mesh adaptive_config in
             Network.attach net ~node:3 (fun ~src:_ _ -> ());
             Network.send net ~src:0 ~dst:3 ~bytes_:16 ();
             Engine.run engine)))

let test_knob_blackhole () =
  with_check (fun () ->
      Network.test_blackhole := true;
      Alcotest.(check bool) "dropping a reachable message fires" true
        (fires (fun () ->
             let engine = Engine.create () in
             let mesh = Mesh.create ~width:3 ~height:1 in
             let net = Network.create engine mesh adaptive_config in
             Network.attach net ~node:2 (fun ~src:_ _ -> ());
             Network.send net ~src:0 ~dst:2 ~bytes_:16 ();
             Engine.run engine)))

(* --- Epoch determinism: one replicate under a live link campaign, as a
   campaign cell run with 1 worker and with 2 — aggregates (including the
   final route-table epoch) must be identical. --- *)

let campaign_replicate ~seed =
  let engine = Engine.create ~seed () in
  let traffic = Rng.split (Engine.rng engine) in
  let mesh = Mesh.create ~width:4 ~height:4 in
  let net = Network.create engine mesh adaptive_config in
  for node = 0 to 15 do
    Network.attach net ~node (fun ~src:_ _ -> ())
  done;
  let lf =
    Link_fault.start engine
      (Rng.split (Engine.rng engine))
      mesh
      {
        Link_fault.upset_rate = 1e-4;
        upset_repair_mean = 300.0;
        wearout_shape = 2.0;
        wearout_scale = 30_000.0;
      }
  in
  Engine.every engine ~period:50 (fun () ->
      Network.send net ~src:(Rng.int traffic 16) ~dst:(Rng.int traffic 16) ~bytes_:16 ());
  Engine.run ~until:20_000 engine;
  Link_fault.halt lf;
  [
    ("epoch", float_of_int (Network.route_epoch net));
    ("recomputes", float_of_int (Network.recomputes net));
    ("delivered", float_of_int (Network.delivered net));
    ("upsets", float_of_int (Link_fault.upsets lf));
  ]

let test_epochs_deterministic_across_jobs () =
  let run jobs =
    let config =
      {
        Campaign.root_seed = 0xADA97L;
        replicates = 4;
        jobs;
        progress = false;
        check = false;
        shrink = false;
        fail_dir = None;
      }
    in
    let cells = [ Campaign.cell "adaptive" (fun ~seed -> campaign_replicate ~seed) ] in
    let result = Campaign.run ~config ~id:"tst" ~title:"epoch determinism" cells in
    List.map
      (fun agg ->
        List.map
          (fun m -> (m, (Campaign.metric agg m).Resoc_campaign.Stats.mean))
          [ "epoch"; "recomputes"; "delivered"; "upsets" ])
      result.Campaign.cells
  in
  let j1 = run 1 and j2 = run 2 in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (j1 = j2);
  Alcotest.(check bool) "campaign actually recomputed" true
    (List.exists (fun cell -> List.assoc "recomputes" cell > 0.0) j1)

(* --- Link campaign replay alignment: a suppression mask must not change
   the occurrence schedule, and suppressing everything must yield a
   fault-free run. --- *)

let hot_campaign =
  {
    Link_fault.upset_rate = 2e-4;
    upset_repair_mean = 300.0;
    wearout_shape = 2.0;
    wearout_scale = 25_000.0;
  }

let masked_run ~seed ~mask ~campaign =
  let outcome = ref (0, 0, 0, 0) in
  let run () =
    let engine = Engine.create ~seed () in
    let traffic = Rng.split (Engine.rng engine) in
    let mesh = Mesh.create ~width:4 ~height:4 in
    let net = Network.create engine mesh adaptive_config in
    for node = 0 to 15 do
      Network.attach net ~node (fun ~src:_ _ -> ())
    done;
    let lf = Link_fault.start engine (Rng.split (Engine.rng engine)) mesh campaign in
    Engine.every engine ~period:100 (fun () ->
        Network.send net ~src:(Rng.int traffic 16) ~dst:(Rng.int traffic 16) ~bytes_:16 ());
    Engine.run ~until:15_000 engine;
    Link_fault.halt lf;
    outcome :=
      ( Link_fault.upsets lf + Link_fault.wearouts lf,
        Network.sent net,
        Network.delivered net,
        Mesh.failed_link_count mesh )
  in
  Option.iter Alcotest.fail (Replay.attempt ?mask run);
  let applied, sent, delivered, down = !outcome in
  (Inject.count (), applied, sent, delivered, down)

let test_link_campaign_mask_alignment () =
  with_check (fun () ->
      let seed = 42L in
      let count, applied, sent, delivered, _ = masked_run ~seed ~mask:None ~campaign:hot_campaign in
      Alcotest.(check bool) "campaign injected something" true (applied > 0);
      let full = masked_run ~seed ~mask:(Some (count, List.init count Fun.id)) ~campaign:hot_campaign in
      Alcotest.(check bool) "full mask reproduces the run" true
        (let c, a, s, d, _ = full in
         (c, a, s, d) = (count, applied, sent, delivered));
      let count', applied', sent', delivered', down' =
        masked_run ~seed ~mask:(Some (count, []) ) ~campaign:hot_campaign
      in
      Alcotest.(check int) "suppression keeps the occurrence schedule" count count';
      Alcotest.(check int) "nothing applied" 0 applied';
      Alcotest.(check int) "mesh never touched" 0 down';
      (* Fully suppressed campaign = the campaign never ran: traffic and
         delivery match a zero-rate reference exactly. *)
      let _, _, sent0, delivered0, _ =
        masked_run ~seed ~mask:None ~campaign:Link_fault.default_config
      in
      Alcotest.(check int) "traffic matches zero-rate reference" sent0 sent';
      Alcotest.(check int) "delivery matches zero-rate reference" delivered0 delivered')

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_adaptive"
    [
      qsuite "model"
        [
          prop_tables_match_reference;
          prop_delivery_iff_connected;
          prop_live_delivery_iff_connected;
          prop_counts_match_scans;
          prop_checked_clean;
        ];
      ("oracle", [ Alcotest.test_case "link up retakes a tie" `Quick test_link_up_retakes_tie ]);
      ( "mutants",
        [
          Alcotest.test_case "skip-up-check fires" `Quick test_knob_skip_up_check;
          Alcotest.test_case "detour loop fires" `Quick test_knob_detour_loop;
          Alcotest.test_case "blackhole fires" `Quick test_knob_blackhole;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "epochs stable across jobs" `Quick
            test_epochs_deterministic_across_jobs;
          Alcotest.test_case "mask alignment" `Quick test_link_campaign_mask_alignment;
        ] );
    ]
