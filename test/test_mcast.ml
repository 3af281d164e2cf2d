(* Model tests for tree-based NoC multicast: the delivery set equals the
   BFS-connected destination set (and the Adaptive unicast reference)
   under random fault scripts in all three routing modes, no destination
   is ever served twice (including duplicate entries in [dsts]), the two
   multicast invariants hold on checked traffic and demonstrably fire
   under their mutation knobs, protocol broadcasts over an end-to-end SoC
   reach agreement identically in both modes, and a multicast campaign
   aggregates bit-identically across worker counts. *)

open Resoc_noc
module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Check = Resoc_check.Check
module Inject = Resoc_check.Inject
module Link_fault = Resoc_fault.Link_fault
module Campaign = Resoc_campaign.Campaign
module Group = Resoc_core.Group
module Soc = Resoc_core.Soc
module Generator = Resoc_workload.Generator

let with_check f =
  Fun.protect
    ~finally:(fun () ->
      Check.disable ();
      Inject.stop ();
      Check.begin_replicate ();
      Inject.begin_replicate ();
      Network.test_mcast_skip_branch := false;
      Network.test_mcast_dup_deliver := false)
    (fun () ->
      Check.enable ();
      Inject.record ();
      Check.begin_replicate ();
      Inject.begin_replicate ();
      f ())

(* Reference connectivity: plain BFS over the surviving topology, written
   against the mesh API only (no shared code with Mcast). *)
let ref_reachable mesh ~src ~dst =
  if not (Mesh.router_up mesh src && Mesh.router_up mesh dst) then false
  else begin
    let seen = Array.make (Mesh.n_nodes mesh) false in
    let q = Queue.create () in
    seen.(src) <- true;
    Queue.push src q;
    let found = ref false in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      if u = dst then found := true;
      List.iter
        (fun v ->
          if (not seen.(v)) && Mesh.router_up mesh v && Mesh.link_up mesh { Mesh.src = u; dst = v }
          then begin
            seen.(v) <- true;
            Queue.push v q
          end)
        (Mesh.neighbors mesh u)
    done;
    !found
  end

let apply_ops mesh ops =
  let links = Mesh.real_link_ids mesh in
  List.iter
    (fun (op, x) ->
      match op mod 4 with
      | 0 -> Mesh.fail_link mesh (Mesh.link_of_id mesh links.(x mod Array.length links))
      | 1 -> Mesh.repair_link mesh (Mesh.link_of_id mesh links.(x mod Array.length links))
      | 2 -> Mesh.fail_router mesh (x mod Mesh.n_nodes mesh)
      | _ -> Mesh.repair_router mesh (x mod Mesh.n_nodes mesh))
    ops

let ops_gen = QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_bound 3) small_nat))

let all_routings = [ Network.Xy; Network.Xy_with_yx_fallback; Network.Adaptive ]

let mcast_config routing = { Network.default_config with routing; multicast = true }

(* Every node multicasts its id to all the others; returns the set of
   (origin, receiver) pairs that arrived, with per-pair delivery counts. *)
let run_all_to_all_mcast mesh routing =
  let engine = Engine.create () in
  let net = Network.create engine mesh (mcast_config routing) in
  let n = Mesh.n_nodes mesh in
  let got = Hashtbl.create 64 in
  for node = 0 to n - 1 do
    Network.attach net ~node (fun ~src:_ origin ->
        let key = (origin, node) in
        Hashtbl.replace got key (1 + Option.value ~default:0 (Hashtbl.find_opt got key)))
  done;
  for src = 0 to n - 1 do
    let dsts = Array.init (n - 1) (fun i -> if i < src then i else i + 1) in
    Network.multicast net ~src ~dsts ~bytes_:16 src
  done;
  Engine.run engine;
  got

(* The multicast delivery set is exactly the BFS-connected pairs, in every
   routing mode: trees are built over the surviving topology regardless of
   how unicasts route. *)
let prop_mcast_delivers_connected =
  QCheck.Test.make ~name:"multicast delivers exactly the BFS-connected pairs" ~count:40 ops_gen
    (fun ops ->
      List.for_all
        (fun routing ->
          let mesh = Mesh.create ~width:4 ~height:4 in
          apply_ops mesh ops;
          let got = run_all_to_all_mcast mesh routing in
          let ok = ref true in
          let n = Mesh.n_nodes mesh in
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              if src <> dst then begin
                let expect = ref_reachable mesh ~src ~dst in
                if Hashtbl.mem got (src, dst) <> expect then ok := false
              end
            done
          done;
          !ok)
        all_routings)

(* Delivery-set equivalence against the per-destination unicast reference:
   an Adaptive unicast fan-out on the same surviving topology reaches the
   same receivers as one multicast. *)
let prop_mcast_matches_unicast_reference =
  QCheck.Test.make ~name:"multicast set = adaptive unicast fan-out set" ~count:40 ops_gen
    (fun ops ->
      let uni_mesh = Mesh.create ~width:4 ~height:4 in
      apply_ops uni_mesh ops;
      let engine = Engine.create () in
      let net =
        Network.create engine uni_mesh { Network.default_config with routing = Network.Adaptive }
      in
      let n = Mesh.n_nodes uni_mesh in
      let uni_got = Hashtbl.create 64 in
      for node = 0 to n - 1 do
        Network.attach net ~node (fun ~src origin ->
            ignore src;
            Hashtbl.replace uni_got (origin, node) ())
      done;
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then Network.send net ~src ~dst ~bytes_:16 src
        done
      done;
      Engine.run engine;
      List.for_all
        (fun routing ->
          let mesh = Mesh.create ~width:4 ~height:4 in
          apply_ops mesh ops;
          let got = run_all_to_all_mcast mesh routing in
          let ok = ref true in
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              if src <> dst && Hashtbl.mem got (src, dst) <> Hashtbl.mem uni_got (src, dst) then
                ok := false
            done
          done;
          !ok)
        all_routings)

(* No receiver is ever served twice — even when [dsts] lists it twice and
   even when the origin addresses itself. *)
let prop_duplicate_free =
  QCheck.Test.make ~name:"multicast never delivers twice" ~count:40 ops_gen
    (fun ops ->
      let mesh = Mesh.create ~width:4 ~height:4 in
      apply_ops mesh ops;
      let engine = Engine.create () in
      let net = Network.create engine mesh (mcast_config Network.Adaptive) in
      let n = Mesh.n_nodes mesh in
      let got = Hashtbl.create 64 in
      for node = 0 to n - 1 do
        Network.attach net ~node (fun ~src:_ origin ->
            let key = (origin, node) in
            Hashtbl.replace got key (1 + Option.value ~default:0 (Hashtbl.find_opt got key)))
      done;
      for src = 0 to n - 1 do
        (* Every destination (including the origin itself) listed twice. *)
        let dsts = Array.init (2 * n) (fun i -> i mod n) in
        Network.multicast net ~src ~dsts ~bytes_:16 src
      done;
      Engine.run engine;
      Hashtbl.fold (fun _ count ok -> ok && count = 1) got true)

(* The checker's multicast invariants hold on real traffic over random
   topologies, and the hooks demonstrably observed it. *)
let prop_checked_clean =
  QCheck.Test.make ~name:"multicast passes the checker invariants" ~count:30 ops_gen
    (fun ops ->
      with_check (fun () ->
          let mesh = Mesh.create ~width:4 ~height:4 in
          apply_ops mesh ops;
          ignore (run_all_to_all_mcast mesh Network.Adaptive);
          Check.hooks_fired () > 0))

(* --- Mutation knobs: each multicast invariant must fire when its
   property is deliberately broken (DESIGN.md section 7 discipline). --- *)

let fires f = match f () with () -> false | exception Check.Violation _ -> true

let test_knob_skip_branch () =
  with_check (fun () ->
      Network.test_mcast_skip_branch := true;
      Alcotest.(check bool) "pruned branch fires the delivery-set invariant" true
        (fires (fun () ->
             let engine = Engine.create () in
             let mesh = Mesh.create ~width:3 ~height:1 in
             let net = Network.create engine mesh (mcast_config Network.Xy) in
             Network.attach net ~node:0 (fun ~src:_ _ -> ());
             Network.attach net ~node:2 (fun ~src:_ _ -> ());
             (* The tree forks at node 1: west to 0, east to 2; the knob
                silently prunes the highest direction. *)
             Network.multicast net ~src:1 ~dsts:[| 0; 2 |] ~bytes_:16 ();
             Engine.run engine)))

let test_knob_dup_deliver () =
  with_check (fun () ->
      Network.test_mcast_dup_deliver := true;
      Alcotest.(check bool) "double delivery fires the duplicate invariant" true
        (fires (fun () ->
             let engine = Engine.create () in
             let mesh = Mesh.create ~width:3 ~height:1 in
             let net = Network.create engine mesh (mcast_config Network.Xy) in
             Network.attach net ~node:2 (fun ~src:_ _ -> ());
             Network.multicast net ~src:0 ~dsts:[| 2 |] ~bytes_:16 ();
             Engine.run engine)))

(* --- End-to-end: a PBFT group on a mesh SoC completes the same requests
   with protocol fan-outs on trees as on unicast, with the checker on. --- *)

let soc_burst ~multicast =
  let soc =
    Soc.create
      {
        Soc.default_config with
        mesh_width = 4;
        mesh_height = 4;
        seed = 99L;
        noc = { Network.default_config with multicast };
      }
  in
  let spec = { Group.default_spec with kind = `Pbft; f = 1; n_clients = 2; multicast } in
  let group = Group.build (Soc.engine soc) (Group.On_soc soc) spec in
  Generator.burst ~n_per_client:5 ~n_clients:2 ~submit:group.Group.submit;
  Engine.run ~until:2_000_000 (Soc.engine soc);
  let s = group.Group.stats () in
  (s.Resoc_repl.Stats.submitted, s.Resoc_repl.Stats.completed)

let test_protocol_broadcast_equivalent () =
  with_check (fun () ->
      let submitted_m, completed_m = soc_burst ~multicast:true in
      Check.begin_replicate ();
      Inject.begin_replicate ();
      let submitted_u, completed_u = soc_burst ~multicast:false in
      Alcotest.(check int) "same submissions" submitted_u submitted_m;
      Alcotest.(check int) "same completions" completed_u completed_m;
      Alcotest.(check bool) "requests actually completed" true (completed_m = 10))

(* --- Campaign determinism: one multicast replicate under a live link
   campaign, run with 1 worker and with 2 — every aggregate (delivery
   counts, tree builds, BFS visits) must be identical. --- *)

let campaign_replicate ~seed =
  let engine = Engine.create ~seed () in
  let traffic = Rng.split (Engine.rng engine) in
  let mesh = Mesh.create ~width:4 ~height:4 in
  let net = Network.create engine mesh (mcast_config Network.Adaptive) in
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
  let dsts = Array.make 4 0 in
  Engine.every engine ~period:50 (fun () ->
      let src = Rng.int traffic 16 in
      for i = 0 to 3 do
        dsts.(i) <- Rng.int traffic 16
      done;
      Network.multicast net ~src ~dsts ~bytes_:16 ());
  Engine.run ~until:20_000 engine;
  Link_fault.halt lf;
  [
    ("sent", float_of_int (Network.sent net));
    ("delivered", float_of_int (Network.delivered net));
    ("builds", float_of_int (Network.mcast_tree_builds net));
    ("visits", float_of_int (Network.mcast_tree_visits net));
    ("upsets", float_of_int (Link_fault.upsets lf));
  ]

let test_campaign_deterministic_across_jobs () =
  let run jobs =
    let config =
      {
        Campaign.root_seed = 0x3CA57L;
        replicates = 4;
        jobs;
        progress = false;
        check = false;
        shrink = false;
        fail_dir = None;
      }
    in
    let cells = [ Campaign.cell "mcast" (fun ~seed -> campaign_replicate ~seed) ] in
    let result = Campaign.run ~config ~id:"tst" ~title:"multicast determinism" cells in
    List.map
      (fun agg ->
        List.map
          (fun m -> (m, (Campaign.metric agg m).Resoc_campaign.Stats.mean))
          [ "sent"; "delivered"; "builds"; "visits"; "upsets" ])
      result.Campaign.cells
  in
  let j1 = run 1 and j2 = run 2 in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (j1 = j2);
  Alcotest.(check bool) "trees were actually (re)built" true
    (List.exists (fun cell -> List.assoc "builds" cell > 0.0) j1)

(* Unicasts and multicast branches share one flight pool, and the
   unboxed payload array must grow with it whichever path grows it. On
   one 8x8 network, launch a burst of one kind, run it out, then a larger
   burst of the other kind, so each kind grows the pool in turn (the
   pool starts at 64 slots and doubles): every payload must arrive
   intact, exactly once. *)
let test_pool_growth_across_send_paths () =
  List.iter
    (fun mcast_first ->
      let engine = Engine.create () in
      let mesh = Mesh.create ~width:8 ~height:8 in
      let net = Network.create engine mesh { Network.default_config with multicast = true } in
      let got = Hashtbl.create 4096 and expected = Hashtbl.create 4096 in
      let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
      for node = 0 to 63 do
        Network.attach net ~node (fun ~src:_ payload -> bump got (node, payload))
      done;
      let all = Array.init 64 Fun.id in
      let multicasts roots =
        List.iter
          (fun src ->
            let payload = Printf.sprintf "mcast from %d" src in
            Array.iter (fun node -> bump expected (node, payload)) all;
            Network.multicast net ~src ~dsts:all ~bytes_:48 payload)
          roots;
        Engine.run engine
      in
      let unicasts k =
        for i = 0 to k - 1 do
          let src = i mod 64 and dst = ((i * 7) + 3) mod 64 in
          let payload = Printf.sprintf "unicast %d" i in
          bump expected (dst, payload);
          Network.send net ~src ~dst ~bytes_:48 payload
        done;
        Engine.run engine
      in
      if mcast_first then begin
        multicasts (List.init 16 (fun i -> i * 4));
        unicasts 400
      end
      else begin
        unicasts 100;
        multicasts (List.init 64 Fun.id)
      end;
      let sorted tbl = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []) in
      Alcotest.(check (list (pair (pair int string) int)))
        (if mcast_first then "multicast first" else "unicast first")
        (sorted expected) (sorted got))
    [ true; false ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_mcast"
    [
      qsuite "model"
        [
          prop_mcast_delivers_connected;
          prop_mcast_matches_unicast_reference;
          prop_duplicate_free;
          prop_checked_clean;
        ];
      ( "mutants",
        [
          Alcotest.test_case "skip-branch fires" `Quick test_knob_skip_branch;
          Alcotest.test_case "dup-deliver fires" `Quick test_knob_dup_deliver;
        ] );
      ( "pool",
        [
          Alcotest.test_case "growth across send paths" `Quick test_pool_growth_across_send_paths;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "protocol broadcasts equivalent" `Quick
            test_protocol_broadcast_equivalent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "campaign stable across jobs" `Quick
            test_campaign_deterministic_across_jobs;
        ] );
    ]
