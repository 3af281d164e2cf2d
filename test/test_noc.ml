open Resoc_noc
module Engine = Resoc_des.Engine

(* --- Mesh --- *)

let test_mesh_coords () =
  let m = Mesh.create ~width:4 ~height:3 in
  Alcotest.(check int) "n_nodes" 12 (Mesh.n_nodes m);
  Alcotest.(check (pair int int)) "coord of 0" (0, 0) (Mesh.coord_of_id m 0);
  Alcotest.(check (pair int int)) "coord of 5" (1, 1) (Mesh.coord_of_id m 5);
  Alcotest.(check int) "id of (3,2)" 11 (Mesh.id_of_coord m ~x:3 ~y:2)

let test_mesh_coords_bounds () =
  let m = Mesh.create ~width:2 ~height:2 in
  Alcotest.check_raises "oob id" (Invalid_argument "Mesh: tile id out of range") (fun () ->
      ignore (Mesh.coord_of_id m 4))

let test_manhattan () =
  let m = Mesh.create ~width:4 ~height:4 in
  Alcotest.(check int) "self" 0 (Mesh.manhattan m 0 0);
  Alcotest.(check int) "corner to corner" 6 (Mesh.manhattan m 0 15);
  Alcotest.(check int) "adjacent" 1 (Mesh.manhattan m 0 1)

let test_neighbors () =
  let m = Mesh.create ~width:3 ~height:3 in
  Alcotest.(check (list int)) "corner" [ 1; 3 ] (List.sort compare (Mesh.neighbors m 0));
  Alcotest.(check (list int)) "center" [ 1; 3; 5; 7 ] (List.sort compare (Mesh.neighbors m 4))

let test_xy_route_shape () =
  let m = Mesh.create ~width:4 ~height:4 in
  (* 1=(1,0) -> 14=(2,3): X first to (2,0)=2, then Y down to (2,3)=14. *)
  Alcotest.(check (list int)) "x then y" [ 1; 2; 6; 10; 14 ] (Mesh.xy_route m ~src:1 ~dst:14)

let test_xy_route_self () =
  let m = Mesh.create ~width:4 ~height:4 in
  Alcotest.(check (list int)) "self route" [ 5 ] (Mesh.xy_route m ~src:5 ~dst:5)

let test_route_length_is_manhattan () =
  let m = Mesh.create ~width:5 ~height:5 in
  for src = 0 to 24 do
    for dst = 0 to 24 do
      let route = Mesh.xy_route m ~src ~dst in
      Alcotest.(check int)
        (Printf.sprintf "route %d->%d" src dst)
        (Mesh.manhattan m src dst + 1)
        (List.length route)
    done
  done

let prop_route_steps_adjacent =
  QCheck.Test.make ~name:"xy route moves by adjacent hops" ~count:200
    QCheck.(pair (int_bound 35) (int_bound 35))
    (fun (src, dst) ->
      let m = Mesh.create ~width:6 ~height:6 in
      let route = Mesh.xy_route m ~src ~dst in
      let rec ok = function
        | a :: (b :: _ as rest) -> Mesh.manhattan m a b = 1 && ok rest
        | [ _ ] | [] -> true
      in
      ok route && List.hd route = src && List.hd (List.rev route) = dst)

let test_link_failure () =
  let m = Mesh.create ~width:3 ~height:1 in
  let l = { Mesh.src = 0; dst = 1 } in
  Alcotest.(check bool) "up initially" true (Mesh.link_up m l);
  Mesh.fail_link m l;
  Alcotest.(check bool) "down after fail" false (Mesh.link_up m l);
  Alcotest.(check bool) "reverse direction unaffected" true (Mesh.link_up m { Mesh.src = 1; dst = 0 });
  Alcotest.(check bool) "route unusable" false (Mesh.route_usable m ~src:0 ~dst:2);
  Alcotest.(check bool) "reverse route usable" true (Mesh.route_usable m ~src:2 ~dst:0);
  Mesh.repair_link m l;
  Alcotest.(check bool) "up after repair" true (Mesh.link_up m l)

let test_router_failure () =
  let m = Mesh.create ~width:3 ~height:1 in
  Mesh.fail_router m 1;
  Alcotest.(check bool) "route through dead router" false (Mesh.route_usable m ~src:0 ~dst:2);
  Alcotest.(check (list int)) "listed" [ 1 ] (Mesh.failed_routers m);
  Mesh.repair_router m 1;
  Alcotest.(check bool) "restored" true (Mesh.route_usable m ~src:0 ~dst:2)

let test_epoch_and_counts () =
  let m = Mesh.create ~width:3 ~height:3 in
  let fired = ref 0 in
  Mesh.on_change m (fun () -> incr fired);
  Alcotest.(check int) "epoch starts at 0" 0 (Mesh.epoch m);
  let l = { Mesh.src = 0; dst = 1 } in
  Mesh.fail_link m l;
  Mesh.fail_link m l;
  Alcotest.(check int) "re-failing is a no-op" 1 (Mesh.epoch m);
  Alcotest.(check int) "one failed link" 1 (Mesh.failed_link_count m);
  Mesh.fail_router m 4;
  Alcotest.(check int) "one failed router" 1 (Mesh.failed_router_count m);
  Mesh.repair_link m l;
  Mesh.repair_link m l;
  Mesh.repair_router m 4;
  Alcotest.(check int) "links repaired" 0 (Mesh.failed_link_count m);
  Alcotest.(check int) "routers repaired" 0 (Mesh.failed_router_count m);
  Alcotest.(check int) "one event per actual change" 4 !fired;
  Alcotest.(check int) "epoch counts actual changes" 4 (Mesh.epoch m)

let test_real_link_ids () =
  let m = Mesh.create ~width:3 ~height:3 in
  let ids = Mesh.real_link_ids m in
  (* Directed links of a w*h mesh: 2 * (2*w*h - w - h). *)
  Alcotest.(check int) "count" 24 (Array.length ids);
  Array.iteri
    (fun i lid ->
      if i > 0 then Alcotest.(check bool) "ascending" true (lid > ids.(i - 1));
      let l = Mesh.link_of_id m lid in
      Alcotest.(check int) "roundtrip" lid (Mesh.link_id m ~src:l.Mesh.src ~dst:l.Mesh.dst))
    ids

let test_non_adjacent_link_rejected () =
  let m = Mesh.create ~width:3 ~height:3 in
  Alcotest.check_raises "diagonal" (Invalid_argument "Mesh: not a link between adjacent tiles")
    (fun () -> Mesh.fail_link m { Mesh.src = 0; dst = 4 })

(* --- Network --- *)

let make_net ?(config = Network.default_config) ~width ~height () =
  let engine = Engine.create () in
  let mesh = Mesh.create ~width ~height in
  let net = Network.create engine mesh config in
  (engine, net)

let test_delivery () =
  let engine, net = make_net ~width:4 ~height:4 () in
  let received = ref [] in
  Network.attach net ~node:15 (fun ~src msg -> received := (src, msg) :: !received);
  Network.send net ~src:0 ~dst:15 ~bytes_:32 "hello";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !received;
  Alcotest.(check int) "delivered count" 1 (Network.delivered net)

let test_latency_formula () =
  (* Uncontended: hops * (router_latency + ceil(bytes/bw)). 0->3 on a 1-row
     mesh = 3 hops; (2 + 2) * 3 = 12 cycles. *)
  let engine, net = make_net ~width:4 ~height:1 () in
  let at = ref (-1) in
  Network.attach net ~node:3 (fun ~src:_ _ -> at := Engine.now engine);
  Network.send net ~src:0 ~dst:3 ~bytes_:32 ();
  Engine.run engine;
  Alcotest.(check int) "latency" 12 !at

let test_local_delivery () =
  let engine, net = make_net ~width:2 ~height:2 () in
  let at = ref (-1) in
  Network.attach net ~node:1 (fun ~src:_ _ -> at := Engine.now engine);
  Network.send net ~src:1 ~dst:1 ~bytes_:8 ();
  Engine.run engine;
  Alcotest.(check int) "loopback cost" 1 !at

let test_contention_serializes () =
  (* Two messages racing over the same link: the second waits. *)
  let engine, net = make_net ~width:2 ~height:1 () in
  let times = ref [] in
  Network.attach net ~node:1 (fun ~src:_ id -> times := (id, Engine.now engine) :: !times);
  Network.send net ~src:0 ~dst:1 ~bytes_:32 1;
  Network.send net ~src:0 ~dst:1 ~bytes_:32 2;
  Engine.run engine;
  (match List.sort compare !times with
   | [ (1, t1); (2, t2) ] ->
     Alcotest.(check int) "first uncontended" 4 t1;
     Alcotest.(check int) "second queued behind" 8 t2
   | _ -> Alcotest.fail "expected two deliveries")

let test_drop_on_failed_link () =
  let engine, net = make_net ~width:3 ~height:1 () in
  let received = ref 0 in
  Network.attach net ~node:2 (fun ~src:_ _ -> incr received);
  Mesh.fail_link (Network.mesh net) { Mesh.src = 1; dst = 2 };
  Network.send net ~src:0 ~dst:2 ~bytes_:16 ();
  Engine.run engine;
  Alcotest.(check int) "nothing received" 0 !received;
  Alcotest.(check int) "dropped" 1 (Network.dropped net)

let test_drop_on_detached_handler () =
  let engine, net = make_net ~width:2 ~height:1 () in
  let received = ref 0 in
  Network.attach net ~node:1 (fun ~src:_ _ -> incr received);
  Network.detach net ~node:1;
  Network.send net ~src:0 ~dst:1 ~bytes_:16 ();
  Engine.run engine;
  Alcotest.(check int) "dropped at dest" 1 (Network.dropped net);
  Alcotest.(check int) "handler not called" 0 !received

let test_drop_on_midflight_router_death () =
  let engine, net = make_net ~width:3 ~height:1 () in
  let received = ref 0 in
  Network.attach net ~node:2 (fun ~src:_ _ -> incr received);
  Network.send net ~src:0 ~dst:2 ~bytes_:16 ();
  (* Kill router 2 while the message is crossing the first link (hop takes 3
     cycles with default config: 2 + ceil(16/16)). *)
  ignore (Engine.schedule engine ~delay:4 (fun () -> Mesh.fail_router (Network.mesh net) 2));
  Engine.run engine;
  Alcotest.(check int) "dropped mid-flight" 1 (Network.dropped net);
  Alcotest.(check int) "not delivered" 0 !received

let test_reattach_replaces_handler () =
  let engine, net = make_net ~width:2 ~height:1 () in
  let first = ref 0 and second = ref 0 in
  Network.attach net ~node:1 (fun ~src:_ _ -> incr first);
  Network.attach net ~node:1 (fun ~src:_ _ -> incr second);
  Network.send net ~src:0 ~dst:1 ~bytes_:16 ();
  Engine.run engine;
  Alcotest.(check int) "old handler silent" 0 !first;
  Alcotest.(check int) "new handler used" 1 !second

let test_stats_accumulate () =
  let engine, net = make_net ~width:4 ~height:4 () in
  for node = 0 to 15 do
    Network.attach net ~node (fun ~src:_ _ -> ())
  done;
  for i = 0 to 9 do
    Network.send net ~src:0 ~dst:(i + 1) ~bytes_:64 ()
  done;
  Engine.run engine;
  Alcotest.(check int) "sent" 10 (Network.sent net);
  Alcotest.(check int) "delivered" 10 (Network.delivered net);
  Alcotest.(check int) "bytes" 640 (Network.bytes_sent net)

let test_hop_load () =
  let engine, net = make_net ~width:3 ~height:1 () in
  Network.attach net ~node:2 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:2 ~bytes_:16 ();
  Network.send net ~src:0 ~dst:2 ~bytes_:16 ();
  Engine.run engine;
  let load = Network.hop_load net in
  Alcotest.(check int) "two links used" 2 (List.length load);
  List.iter (fun (_, n) -> Alcotest.(check int) "each carried 2" 2 n) load

let test_farther_is_slower () =
  let engine, net = make_net ~width:8 ~height:1 () in
  let t_near = ref 0 and t_far = ref 0 in
  Network.attach net ~node:1 (fun ~src:_ _ -> t_near := Engine.now engine);
  Network.attach net ~node:7 (fun ~src:_ _ -> t_far := Engine.now engine);
  Network.send net ~src:0 ~dst:1 ~bytes_:16 ();
  Network.send net ~src:0 ~dst:7 ~bytes_:16 ();
  Engine.run engine;
  Alcotest.(check bool) "monotone in distance" true (!t_far > !t_near)

(* --- Adaptive routing --- *)

let adaptive_config = { Network.default_config with routing = Network.Adaptive }

(* Sever the column-0/1 boundary of a 4x4 mesh except in row 0: the mesh
   stays connected but every XY and YX path between off-row-0 tiles of the
   two sides is broken. *)
let build_wall mesh =
  for y = 1 to 3 do
    let a = (y * 4) + 0 and b = (y * 4) + 1 in
    Mesh.fail_link mesh { Mesh.src = a; dst = b };
    Mesh.fail_link mesh { Mesh.src = b; dst = a }
  done

let test_adaptive_routes_around_wall () =
  let engine, net = make_net ~config:adaptive_config ~width:4 ~height:4 () in
  build_wall (Network.mesh net);
  let received = ref 0 in
  for node = 0 to 15 do
    Network.attach net ~node (fun ~src:_ _ -> incr received)
  done;
  (* 4=(0,1) -> 5=(1,1): XY and YX are the same severed link; only the
     detour through row 0 delivers. *)
  Network.send net ~src:4 ~dst:5 ~bytes_:16 ();
  Engine.run engine;
  Alcotest.(check int) "delivered around the wall" 1 !received;
  Alcotest.(check int) "nothing dropped" 0 (Network.dropped net)

let test_xy_modes_drop_at_wall () =
  List.iter
    (fun routing ->
      let config = { Network.default_config with routing } in
      let engine, net = make_net ~config ~width:4 ~height:4 () in
      build_wall (Network.mesh net);
      let received = ref 0 in
      for node = 0 to 15 do
        Network.attach net ~node (fun ~src:_ _ -> incr received)
      done;
      Network.send net ~src:4 ~dst:5 ~bytes_:16 ();
      Engine.run engine;
      Alcotest.(check int) "dropped at the wall" 0 !received)
    [ Network.Xy; Network.Xy_with_yx_fallback ]

let test_adaptive_drops_only_when_partitioned () =
  let engine, net = make_net ~config:adaptive_config ~width:4 ~height:4 () in
  let mesh = Network.mesh net in
  build_wall mesh;
  let received = ref 0 in
  for node = 0 to 15 do
    Network.attach net ~node (fun ~src:_ _ -> incr received)
  done;
  (* Close the remaining row-0 opening: now the halves are partitioned. *)
  Mesh.fail_link mesh { Mesh.src = 0; dst = 1 };
  Mesh.fail_link mesh { Mesh.src = 1; dst = 0 };
  Alcotest.(check bool) "unreachable" false (Network.reachable net ~src:4 ~dst:5);
  Network.send net ~src:4 ~dst:5 ~bytes_:16 ();
  Engine.run engine;
  Alcotest.(check int) "dropped" 1 (Network.dropped net);
  (* Repair re-opens the detour; the next message goes through. *)
  Mesh.repair_link mesh { Mesh.src = 0; dst = 1 };
  Alcotest.(check bool) "reachable again" true (Network.reachable net ~src:4 ~dst:5);
  Network.send net ~src:4 ~dst:5 ~bytes_:16 ();
  Engine.run engine;
  Alcotest.(check int) "delivered after repair" 1 !received

let test_route_epoch_tracks_mesh () =
  let _engine, net = make_net ~config:adaptive_config ~width:3 ~height:3 () in
  let mesh = Network.mesh net in
  Alcotest.(check int) "fresh tables" (Mesh.epoch mesh) (Network.route_epoch net);
  Mesh.fail_link mesh { Mesh.src = 0; dst = 1 };
  Mesh.fail_router mesh 4;
  Alcotest.(check int) "recomputed per event" (Mesh.epoch mesh) (Network.route_epoch net);
  Alcotest.(check bool) "cost accounted" true (Network.recompute_visits net > 0)

let test_partition_handler_fires () =
  let _engine, net = make_net ~config:adaptive_config ~width:4 ~height:1 () in
  let mesh = Network.mesh net in
  let last = ref (-1, -1) in
  Network.set_partition_handler net (fun ~reachable ~total -> last := (reachable, total));
  Mesh.fail_link mesh { Mesh.src = 1; dst = 2 };
  let reachable, total = !last in
  Alcotest.(check int) "total ordered pairs" 12 total;
  (* One directed link down: 2x2 = 4 left-to-right pairs lost. *)
  Alcotest.(check int) "severed pairs detected" 8 reachable

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_noc"
    [
      ( "mesh",
        [
          Alcotest.test_case "coords" `Quick test_mesh_coords;
          Alcotest.test_case "coord bounds" `Quick test_mesh_coords_bounds;
          Alcotest.test_case "manhattan" `Quick test_manhattan;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "xy route shape" `Quick test_xy_route_shape;
          Alcotest.test_case "self route" `Quick test_xy_route_self;
          Alcotest.test_case "route length" `Quick test_route_length_is_manhattan;
          Alcotest.test_case "link failure" `Quick test_link_failure;
          Alcotest.test_case "router failure" `Quick test_router_failure;
          Alcotest.test_case "non-adjacent link rejected" `Quick test_non_adjacent_link_rejected;
          Alcotest.test_case "epoch and O(1) counts" `Quick test_epoch_and_counts;
          Alcotest.test_case "real link ids" `Quick test_real_link_ids;
        ] );
      qsuite "mesh-prop" [ prop_route_steps_adjacent ];
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_delivery;
          Alcotest.test_case "latency formula" `Quick test_latency_formula;
          Alcotest.test_case "local delivery" `Quick test_local_delivery;
          Alcotest.test_case "contention serializes" `Quick test_contention_serializes;
          Alcotest.test_case "drop on failed link" `Quick test_drop_on_failed_link;
          Alcotest.test_case "drop on detached handler" `Quick test_drop_on_detached_handler;
          Alcotest.test_case "drop mid-flight" `Quick test_drop_on_midflight_router_death;
          Alcotest.test_case "reattach replaces" `Quick test_reattach_replaces_handler;
          Alcotest.test_case "stats" `Quick test_stats_accumulate;
          Alcotest.test_case "hop load" `Quick test_hop_load;
          Alcotest.test_case "farther is slower" `Quick test_farther_is_slower;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "routes around wall" `Quick test_adaptive_routes_around_wall;
          Alcotest.test_case "xy modes drop at wall" `Quick test_xy_modes_drop_at_wall;
          Alcotest.test_case "drops only when partitioned" `Quick
            test_adaptive_drops_only_when_partitioned;
          Alcotest.test_case "route epoch tracks mesh" `Quick test_route_epoch_tracks_mesh;
          Alcotest.test_case "partition handler" `Quick test_partition_handler_fires;
        ] );
    ]
