open Resoc_repl
module Engine = Resoc_des.Engine
module Behavior = Resoc_fault.Behavior
module Register = Resoc_hw.Register
module Usig = Resoc_hybrid.Usig

let horizon = 300_000

(* --- shared helpers --- *)

let submit_series submit ~client ~count =
  for i = 1 to count do
    submit ~client ~payload:(Int64.of_int i)
  done

let sum_1_to n = Int64.of_int (n * (n + 1) / 2)

(* --- App --- *)

let test_app_accumulator () =
  let app = App.accumulator () in
  Alcotest.(check int64) "first" 3L (App.execute app 3L);
  Alcotest.(check int64) "second" 10L (App.execute app 7L);
  Alcotest.(check int64) "state" 10L (App.state app);
  Alcotest.(check int) "executions" 2 (App.executions app)

let test_app_register () =
  let app = App.register () in
  Alcotest.(check int64) "returns previous" 0L (App.execute app 5L);
  Alcotest.(check int64) "returns previous 2" 5L (App.execute app 9L);
  Alcotest.(check int64) "state" 9L (App.state app)

let test_app_corrupted () =
  let good = App.accumulator () in
  let bad = App.corrupted (App.accumulator ()) in
  Alcotest.(check bool) "results differ" false
    (Int64.equal (App.execute good 3L) (App.execute bad 3L));
  Alcotest.(check int64) "state evolution identical" (App.state good) (App.state bad)

let test_app_kv () =
  let app = App.kv () in
  let exec op = App.execute app (App.Kv_op.encode op) in
  Alcotest.(check int64) "get empty" 0L (exec (App.Kv_op.Get 3));
  Alcotest.(check int64) "put returns previous" 0L (exec (App.Kv_op.Put (3, 42l)));
  Alcotest.(check int64) "get returns value" 42L (exec (App.Kv_op.Get 3));
  Alcotest.(check int64) "incr" 43L (exec (App.Kv_op.Incr 3));
  Alcotest.(check int64) "other key independent" 0L (exec (App.Kv_op.Get 5))

let test_app_kv_codec_roundtrip () =
  List.iter
    (fun op ->
      match App.Kv_op.decode (App.Kv_op.encode op) with
      | Some op' -> Alcotest.(check bool) "roundtrip" true (op = op')
      | None -> Alcotest.fail "decode failed")
    [ App.Kv_op.Get 0; App.Kv_op.Get 4095; App.Kv_op.Put (7, 123456l);
      App.Kv_op.Put (0, -1l); App.Kv_op.Incr 15 ]

let test_app_kv_order_sensitive () =
  (* Unlike the accumulator, the kv digest exposes ordering. *)
  let a = App.kv () and b = App.kv () in
  ignore (App.execute a (App.Kv_op.encode (App.Kv_op.Put (1, 10l))));
  ignore (App.execute a (App.Kv_op.encode (App.Kv_op.Put (1, 20l))));
  ignore (App.execute b (App.Kv_op.encode (App.Kv_op.Put (1, 20l))));
  ignore (App.execute b (App.Kv_op.encode (App.Kv_op.Put (1, 10l))));
  Alcotest.(check bool) "divergent order, divergent digest" false
    (Int64.equal (App.state a) (App.state b))

let test_app_kv_malformed_noop () =
  let app = App.kv () in
  Alcotest.(check int64) "malformed payload is a no-op read" 0L (App.execute app 0L)

(* --- Transport hub --- *)

let test_hub_delivery_and_latency () =
  let engine = Engine.create () in
  let fabric = Transport.hub engine ~n:3 ~latency:7 () in
  let got = ref (-1, -1) in
  fabric.Transport.set_handler 2 (fun ~src v -> got := (src, v));
  fabric.Transport.send ~src:0 ~dst:2 42;
  Engine.run engine;
  Alcotest.(check (pair int int)) "delivered" (0, 42) !got;
  Alcotest.(check int) "at latency" 7 (Engine.now engine)

let test_hub_detach () =
  let engine = Engine.create () in
  let fabric = Transport.hub engine ~n:2 () in
  let hits = ref 0 in
  fabric.Transport.set_handler 1 (fun ~src:_ _ -> incr hits);
  fabric.Transport.detach 1;
  fabric.Transport.send ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "detached drops" 0 !hits

let test_hub_counters () =
  let engine = Engine.create () in
  let fabric = Transport.hub engine ~n:2 ~size_of:(fun _ -> 100) () in
  fabric.Transport.set_handler 1 (fun ~src:_ _ -> ());
  fabric.Transport.send ~src:0 ~dst:1 ();
  fabric.Transport.send ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "messages" 2 (fabric.Transport.messages_sent ());
  Alcotest.(check int) "bytes" 200 (fabric.Transport.bytes_sent ())

(* --- PBFT --- *)

let pbft_setup ?(f = 1) ?(n_clients = 1) ?behaviors () =
  let engine = Engine.create () in
  let config = { Pbft.default_config with f; n_clients } in
  let n = Pbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + n_clients) () in
  let sys = Pbft.start engine fabric config ?behaviors () in
  (engine, sys, n)

let check_pbft_agreement sys ~n ~expect ~skip =
  for r = 0 to n - 1 do
    if not (List.mem r skip) then
      Alcotest.(check int64) (Printf.sprintf "replica %d state" r) expect (Pbft.replica_state sys ~replica:r)
  done

let test_pbft_happy_path () =
  let engine, sys, n = pbft_setup () in
  submit_series (Pbft.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "all completed" 5 s.Stats.completed;
  Alcotest.(check int) "no view change" 0 s.Stats.view_changes;
  Alcotest.(check int) "no wrong replies" 0 s.Stats.wrong_replies;
  check_pbft_agreement sys ~n ~expect:(sum_1_to 5) ~skip:[]

let test_pbft_latency_recorded () =
  let engine, sys, _ = pbft_setup () in
  submit_series (Pbft.submit sys) ~client:0 ~count:3;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "latency samples" 3 (Resoc_des.Metrics.Histogram.count s.Stats.latency);
  (* 5-cycle hub: request + preprepare + prepare + commit + reply >= 25 *)
  Alcotest.(check bool) "latency sane" true (Resoc_des.Metrics.Histogram.min s.Stats.latency >= 20.0)

let test_pbft_crash_backup_tolerated () =
  let behaviors = [| Behavior.honest; Behavior.crash_at 0; Behavior.honest; Behavior.honest |] in
  let engine, sys, n = pbft_setup ~behaviors () in
  submit_series (Pbft.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "all completed" 5 s.Stats.completed;
  Alcotest.(check int) "no view change needed" 0 s.Stats.view_changes;
  check_pbft_agreement sys ~n ~expect:(sum_1_to 5) ~skip:[ 1 ]

let test_pbft_crash_primary_view_change () =
  let behaviors = [| Behavior.crash_at 10; Behavior.honest; Behavior.honest; Behavior.honest |] in
  let engine, sys, n = pbft_setup ~behaviors () in
  submit_series (Pbft.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "all completed despite dead primary" 5 s.Stats.completed;
  Alcotest.(check bool) "view changed" true (s.Stats.view_changes >= 1);
  Alcotest.(check bool) "new view adopted" true (Pbft.view sys ~replica:1 >= 1);
  check_pbft_agreement sys ~n ~expect:(sum_1_to 5) ~skip:[ 0 ]

let test_pbft_silent_byzantine_primary () =
  let behaviors =
    [| Behavior.byzantine Behavior.Silent; Behavior.honest; Behavior.honest; Behavior.honest |]
  in
  let engine, sys, n = pbft_setup ~behaviors () in
  submit_series (Pbft.submit sys) ~client:0 ~count:3;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "completed" 3 s.Stats.completed;
  Alcotest.(check bool) "view changed" true (s.Stats.view_changes >= 1);
  check_pbft_agreement sys ~n ~expect:(sum_1_to 3) ~skip:[ 0 ]

let test_pbft_equivocating_primary_evicted () =
  let behaviors =
    [| Behavior.byzantine Behavior.Equivocate; Behavior.honest; Behavior.honest; Behavior.honest |]
  in
  let engine, sys, _ = pbft_setup ~behaviors () in
  submit_series (Pbft.submit sys) ~client:0 ~count:3;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "completed after eviction" 3 s.Stats.completed;
  Alcotest.(check bool) "equivocation forced view change" true (s.Stats.view_changes >= 1);
  (* honest replicas agree *)
  let s1 = Pbft.replica_state sys ~replica:1 in
  Alcotest.(check int64) "r2 agrees" s1 (Pbft.replica_state sys ~replica:2);
  Alcotest.(check int64) "r3 agrees" s1 (Pbft.replica_state sys ~replica:3)

let test_pbft_corrupt_replies_filtered () =
  let behaviors =
    [| Behavior.honest; Behavior.byzantine Behavior.Corrupt_execution; Behavior.honest; Behavior.honest |]
  in
  let engine, sys, _ = pbft_setup ~behaviors () in
  submit_series (Pbft.submit sys) ~client:0 ~count:4;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "completed" 4 s.Stats.completed;
  Alcotest.(check bool) "dissenting replies observed" true (s.Stats.wrong_replies >= 1)

let test_pbft_two_faults_stall_f1 () =
  (* f=1 cannot survive two crashed replicas: no 2f+1 quorum. *)
  let behaviors = [| Behavior.honest; Behavior.crash_at 0; Behavior.crash_at 0; Behavior.honest |] in
  let engine, sys, _ = pbft_setup ~behaviors () in
  submit_series (Pbft.submit sys) ~client:0 ~count:3;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "no unsafe progress" 0 s.Stats.completed

let test_pbft_f2_tolerates_two () =
  let behaviors = Array.make 7 Behavior.honest in
  behaviors.(1) <- Behavior.crash_at 0;
  behaviors.(2) <- Behavior.crash_at 0;
  let engine, sys, n = pbft_setup ~f:2 ~behaviors () in
  submit_series (Pbft.submit sys) ~client:0 ~count:4;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "n is 7" 7 n;
  Alcotest.(check int) "completed" 4 s.Stats.completed;
  check_pbft_agreement sys ~n ~expect:(sum_1_to 4) ~skip:[ 1; 2 ]

let test_pbft_multiple_clients () =
  let engine, sys, n = pbft_setup ~n_clients:3 () in
  submit_series (Pbft.submit sys) ~client:0 ~count:3;
  submit_series (Pbft.submit sys) ~client:1 ~count:3;
  submit_series (Pbft.submit sys) ~client:2 ~count:3;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "all clients served" 9 s.Stats.completed;
  check_pbft_agreement sys ~n ~expect:(Int64.mul 3L (sum_1_to 3)) ~skip:[]

let test_pbft_exactly_once_under_retries () =
  (* Very short client timeout provokes retransmissions; the rid table must
     keep execution exactly-once. *)
  let engine = Engine.create () in
  let config = { Pbft.default_config with f = 1; n_clients = 1; request_timeout = 40 } in
  let n = Pbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 1) ~latency:9 () in
  let sys = Pbft.start engine fabric config () in
  submit_series (Pbft.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "completed" 5 s.Stats.completed;
  Alcotest.(check bool) "retransmissions happened" true (s.Stats.retransmissions > 0);
  check_pbft_agreement sys ~n ~expect:(sum_1_to 5) ~skip:[]

let test_pbft_offline_online_cycle () =
  let engine, sys, n = pbft_setup () in
  (* Staggered rejuvenation: take one replica down at a time. *)
  ignore (Engine.schedule engine ~delay:1_000 (fun () -> Pbft.set_offline sys ~replica:3));
  ignore (Engine.schedule engine ~delay:30_000 (fun () -> Pbft.set_online sys ~replica:3));
  ignore (Engine.schedule engine ~delay:60_000 (fun () -> Pbft.set_offline sys ~replica:2));
  ignore (Engine.schedule engine ~delay:90_000 (fun () -> Pbft.set_online sys ~replica:2));
  Engine.every engine ~period:10_000 (fun () ->
      if Engine.now engine <= 100_000 then Pbft.submit sys ~client:0 ~payload:1L);
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "all completed through rejuvenation" 10 s.Stats.completed;
  (* the rejuvenated replicas caught up via state transfer *)
  Alcotest.(check int64) "r3 state" (Pbft.replica_state sys ~replica:0) (Pbft.replica_state sys ~replica:3);
  Alcotest.(check int64) "r2 state" (Pbft.replica_state sys ~replica:0) (Pbft.replica_state sys ~replica:2);
  ignore n

let test_pbft_determinism () =
  let run () =
    let engine, sys, _ = pbft_setup () in
    submit_series (Pbft.submit sys) ~client:0 ~count:5;
    Engine.run ~until:horizon engine;
    let s = Pbft.stats sys in
    (s.Stats.completed, Resoc_des.Metrics.Histogram.mean s.Stats.latency, Engine.events_processed engine)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* --- MinBFT --- *)

let minbft_setup ?(f = 1) ?(n_clients = 1) ?(protection = Register.Secded) ?behaviors () =
  let engine = Engine.create () in
  let config = { Minbft.default_config with f; n_clients; usig_protection = protection } in
  let n = Minbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + n_clients) () in
  let sys = Minbft.start engine fabric config ?behaviors () in
  (engine, sys, n)

let test_minbft_happy_path () =
  let engine, sys, n = minbft_setup () in
  Alcotest.(check int) "2f+1 replicas" 3 n;
  submit_series (Minbft.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "completed" 5 s.Stats.completed;
  Alcotest.(check int) "no view changes" 0 s.Stats.view_changes;
  for r = 0 to n - 1 do
    Alcotest.(check int64) (Printf.sprintf "replica %d" r) (sum_1_to 5) (Minbft.replica_state sys ~replica:r)
  done

let test_minbft_fewer_messages_than_pbft () =
  (* Same workload, f=1: MinBFT (3 replicas, 2 phases) must move fewer
     protocol messages than PBFT (4 replicas, 3 phases). *)
  let run_pbft () =
    let engine = Engine.create () in
    let config = { Pbft.default_config with f = 1; n_clients = 1 } in
    let fabric = Transport.hub engine ~n:5 () in
    let sys = Pbft.start engine fabric config () in
    submit_series (Pbft.submit sys) ~client:0 ~count:10;
    Engine.run ~until:horizon engine;
    ((Pbft.stats sys).Stats.completed, fabric.Transport.messages_sent ())
  in
  let run_minbft () =
    let engine = Engine.create () in
    let config = { Minbft.default_config with f = 1; n_clients = 1 } in
    let fabric = Transport.hub engine ~n:4 () in
    let sys = Minbft.start engine fabric config () in
    submit_series (Minbft.submit sys) ~client:0 ~count:10;
    Engine.run ~until:horizon engine;
    ((Minbft.stats sys).Stats.completed, fabric.Transport.messages_sent ())
  in
  let pbft_done, pbft_msgs = run_pbft () in
  let minbft_done, minbft_msgs = run_minbft () in
  Alcotest.(check int) "pbft completed" 10 pbft_done;
  Alcotest.(check int) "minbft completed" 10 minbft_done;
  Alcotest.(check bool)
    (Printf.sprintf "minbft %d < pbft %d messages" minbft_msgs pbft_msgs)
    true (minbft_msgs < pbft_msgs)

let test_minbft_crash_backup_tolerated () =
  let behaviors = [| Behavior.honest; Behavior.crash_at 0; Behavior.honest |] in
  let engine, sys, _ = minbft_setup ~behaviors () in
  submit_series (Minbft.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  Alcotest.(check int) "completed" 5 (Minbft.stats sys).Stats.completed

let test_minbft_crash_primary_view_change () =
  let behaviors = [| Behavior.crash_at 10; Behavior.honest; Behavior.honest |] in
  let engine, sys, _ = minbft_setup ~behaviors () in
  submit_series (Minbft.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "completed" 5 s.Stats.completed;
  Alcotest.(check bool) "view changed" true (s.Stats.view_changes >= 1);
  Alcotest.(check int64) "survivors agree" (Minbft.replica_state sys ~replica:1)
    (Minbft.replica_state sys ~replica:2)

let test_minbft_equivocation_harmless () =
  (* The USIG forces distinct counters, so an equivocating primary cannot
     stall the group (contrast with PBFT, where it forces a view change). *)
  let behaviors = [| Behavior.byzantine Behavior.Equivocate; Behavior.honest; Behavior.honest |] in
  let engine, sys, _ = minbft_setup ~behaviors () in
  submit_series (Minbft.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "all completed, no stall" 5 s.Stats.completed;
  Alcotest.(check int) "no view change needed" 0 s.Stats.view_changes;
  (* honest replicas stay mutually consistent *)
  Alcotest.(check int64) "agreement" (Minbft.replica_state sys ~replica:1)
    (Minbft.replica_state sys ~replica:2)

let test_minbft_plain_usig_seu_stalls_primary () =
  (* A silent bitflip in a Plain USIG counter desynchronizes the primary:
     backups see a counter gap and stop accepting its prepares, forcing a
     view change. *)
  let engine, sys, _ = minbft_setup ~protection:Register.Plain () in
  submit_series (Minbft.submit sys) ~client:0 ~count:2;
  ignore
    (Engine.schedule engine ~delay:5_000 (fun () ->
         Register.inject_upset_at (Usig.counter_register (Minbft.usig sys ~replica:0)) 20));
  ignore
    (Engine.schedule engine ~delay:6_000 (fun () ->
         submit_series (Minbft.submit sys) ~client:0 ~count:3));
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "eventually all complete" 5 s.Stats.completed;
  Alcotest.(check bool) "gap detected" true (Minbft.cert_gap_drops sys > 0);
  Alcotest.(check bool) "view change evicted the skewed primary" true (s.Stats.view_changes >= 1)

let test_minbft_secded_usig_survives_seu () =
  let engine, sys, _ = minbft_setup ~protection:Register.Secded () in
  submit_series (Minbft.submit sys) ~client:0 ~count:2;
  ignore
    (Engine.schedule engine ~delay:5_000 (fun () ->
         Register.inject_upset_at (Usig.counter_register (Minbft.usig sys ~replica:0)) 20));
  ignore
    (Engine.schedule engine ~delay:6_000 (fun () ->
         submit_series (Minbft.submit sys) ~client:0 ~count:3));
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "all complete" 5 s.Stats.completed;
  Alcotest.(check int) "no gaps" 0 (Minbft.cert_gap_drops sys);
  Alcotest.(check int) "no view change" 0 s.Stats.view_changes

let test_minbft_corrupt_replies_filtered () =
  let behaviors = [| Behavior.honest; Behavior.byzantine Behavior.Corrupt_execution; Behavior.honest |] in
  let engine, sys, _ = minbft_setup ~behaviors () in
  submit_series (Minbft.submit sys) ~client:0 ~count:4;
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "completed" 4 s.Stats.completed;
  Alcotest.(check bool) "dissent observed" true (s.Stats.wrong_replies >= 1)

let test_minbft_offline_online () =
  let engine, sys, _ = minbft_setup () in
  ignore (Engine.schedule engine ~delay:1_000 (fun () -> Minbft.set_offline sys ~replica:2));
  ignore (Engine.schedule engine ~delay:40_000 (fun () -> Minbft.set_online sys ~replica:2));
  Engine.every engine ~period:10_000 (fun () ->
      if Engine.now engine <= 80_000 then Minbft.submit sys ~client:0 ~payload:1L);
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "completed through cycle" 8 s.Stats.completed;
  Alcotest.(check int64) "rejoined replica consistent" (Minbft.replica_state sys ~replica:0)
    (Minbft.replica_state sys ~replica:2)

let test_minbft_batching_preserves_semantics () =
  (* With a batching window, many concurrent client requests are ordered
     under few certificates, but execution and agreement are unchanged. *)
  let engine = Engine.create () in
  let config =
    { Minbft.default_config with f = 1; n_clients = 6; batch_window = 200; max_batch = 8 }
  in
  let fabric = Transport.hub engine ~n:9 () in
  let sys = Minbft.start engine fabric config () in
  for client = 0 to 5 do
    for i = 1 to 4 do
      Minbft.submit sys ~client ~payload:(Int64.of_int i)
    done
  done;
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "all completed" 24 s.Stats.completed;
  Alcotest.(check int64) "agreement" (Minbft.replica_state sys ~replica:0)
    (Minbft.replica_state sys ~replica:2);
  Alcotest.(check int64) "value" (Int64.mul 6L (sum_1_to 4)) (Minbft.replica_state sys ~replica:0)

let test_minbft_batching_cuts_certificates () =
  let run ~batch_window =
    let engine = Engine.create () in
    let config = { Minbft.default_config with f = 1; n_clients = 8; batch_window; max_batch = 16 } in
    let fabric = Transport.hub engine ~n:11 () in
    let sys = Minbft.start engine fabric config () in
    for client = 0 to 7 do
      for i = 1 to 3 do
        Minbft.submit sys ~client ~payload:(Int64.of_int i)
      done
    done;
    Engine.run ~until:horizon engine;
    Alcotest.(check int) "completed" 24 (Minbft.stats sys).Stats.completed;
    (* Certificates issued by the primary = prepares = its USIG counter. *)
    Resoc_hybrid.Usig.uis_issued (Minbft.usig sys ~replica:0)
  in
  let unbatched = run ~batch_window:0 in
  let batched = run ~batch_window:300 in
  Alcotest.(check bool)
    (Printf.sprintf "batched %d < unbatched %d certificates" batched unbatched)
    true
    (batched < unbatched)

let test_minbft_batching_with_primary_crash () =
  let engine = Engine.create () in
  let config = { Minbft.default_config with f = 1; n_clients = 2; batch_window = 200 } in
  let fabric = Transport.hub engine ~n:5 () in
  let behaviors = [| Behavior.crash_at 10; Behavior.honest; Behavior.honest |] in
  let sys = Minbft.start engine fabric config ~behaviors () in
  submit_series (Minbft.submit sys) ~client:0 ~count:4;
  submit_series (Minbft.submit sys) ~client:1 ~count:4;
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  Alcotest.(check int) "completed through view change" 8 s.Stats.completed;
  Alcotest.(check int64) "survivors agree" (Minbft.replica_state sys ~replica:1)
    (Minbft.replica_state sys ~replica:2)

(* --- Cross-protocol batching + pipelining (Batcher) --- *)

let some_batching ?(window = 100) ?(max_batch = 8) ?(depth = 4) () =
  Some { Types.window_cycles = window; max_batch; pipeline_depth = depth }

let batched_pbft_setup ?batching ?(n_clients = 8) () =
  let engine = Engine.create () in
  let config = { Pbft.default_config with f = 1; n_clients; batching } in
  let n = Pbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + n_clients) () in
  let sys = Pbft.start engine fabric config () in
  (engine, sys, n, fabric)

let test_pbft_batching_preserves_semantics () =
  let engine, sys, n, _ = batched_pbft_setup ?batching:(some_batching ()) () in
  for client = 0 to 7 do
    submit_series (Pbft.submit sys) ~client ~count:4
  done;
  Engine.run ~until:horizon engine;
  let s = Pbft.stats sys in
  Alcotest.(check int) "all completed" 32 s.Stats.completed;
  Alcotest.(check int) "no view change" 0 s.Stats.view_changes;
  check_pbft_agreement sys ~n ~expect:(Int64.mul 8L (sum_1_to 4)) ~skip:[]

let test_pbft_batching_cuts_messages () =
  (* Identical logical traffic with and without batching: agreement cost
     collapses because one Pre_prepare_b/Prepare/Commit round covers a
     whole batch. *)
  let run batching =
    let engine, sys, _, fabric = batched_pbft_setup ?batching () in
    for client = 0 to 7 do
      submit_series (Pbft.submit sys) ~client ~count:4
    done;
    Engine.run ~until:horizon engine;
    Alcotest.(check int) "completed" 32 (Pbft.stats sys).Stats.completed;
    fabric.Transport.messages_sent ()
  in
  let unbatched = run None in
  let batched = run (some_batching ()) in
  Alcotest.(check bool)
    (Printf.sprintf "batched %d msgs < 2/3 of unbatched %d" batched unbatched)
    true
    (3 * batched < 2 * unbatched)

let test_pbft_batching_armed_identical () =
  (* A present-but-inactive config (max_batch 1, window 0) creates no
     batcher: message counts and stats must match a plain run exactly —
     the determinism gate's byte-identity argument in miniature. *)
  let run batching =
    let engine, sys, _, fabric = batched_pbft_setup ?batching () in
    for client = 0 to 7 do
      submit_series (Pbft.submit sys) ~client ~count:4
    done;
    Engine.run ~until:horizon engine;
    ((Pbft.stats sys).Stats.completed, fabric.Transport.messages_sent (),
     fabric.Transport.bytes_sent ())
  in
  let plain = run None in
  let armed = run (some_batching ~window:0 ~max_batch:1 ~depth:1 ()) in
  Alcotest.(check bool) "armed run identical to plain" true (plain = armed)

let test_pbft_batching_depth_one () =
  (* pipeline_depth 1 serializes agreement instances; everything still
     completes, just in more batches. *)
  let engine, sys, n, _ =
    batched_pbft_setup ?batching:(some_batching ~depth:1 ()) ()
  in
  for client = 0 to 7 do
    submit_series (Pbft.submit sys) ~client ~count:3
  done;
  Engine.run ~until:horizon engine;
  Alcotest.(check int) "all completed" 24 (Pbft.stats sys).Stats.completed;
  check_pbft_agreement sys ~n ~expect:(Int64.mul 8L (sum_1_to 3)) ~skip:[]

let test_pbft_batching_with_checkpointing () =
  (* The pipeline is additionally bounded by the checkpoint high
     watermark; with a small interval the two gates interleave. *)
  let engine = Engine.create () in
  let config =
    {
      Pbft.default_config with
      f = 1;
      n_clients = 8;
      batching = some_batching ();
      checkpoint = Some { Checkpoint.interval = 4; window = 2; chunk = 8 };
    }
  in
  let n = Pbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 8) () in
  let sys = Pbft.start engine fabric config () in
  for client = 0 to 7 do
    submit_series (Pbft.submit sys) ~client ~count:4
  done;
  Engine.run ~until:horizon engine;
  Alcotest.(check int) "all completed" 32 (Pbft.stats sys).Stats.completed;
  check_pbft_agreement sys ~n ~expect:(Int64.mul 8L (sum_1_to 4)) ~skip:[]

(* Batching under a tight checkpoint window: with interval 2 and window
   1 the high watermark parks the batcher every few instances, and only
   a certificate reopens it. Every log protocol must kick its batcher
   when the watermark moves; otherwise a parked batch waits out a view
   change in a fault-free run. *)
let test_batching_resumes_at_checkpoint () =
  List.iter
    (fun kind ->
      let engine = Engine.create ~seed:7L () in
      let spec =
        {
          Resoc_core.Group.default_spec with
          kind;
          f = 1;
          n_clients = 32;
          batching = Some { Types.window_cycles = 50; max_batch = 2; pipeline_depth = 4 };
          checkpoint = Some { Checkpoint.interval = 2; window = 1; chunk = 8 };
        }
      in
      let group = Resoc_core.Group.build engine (Resoc_core.Group.Hub { latency = 5 }) spec in
      Resoc_workload.Generator.burst ~n_per_client:50 ~n_clients:32
        ~submit:group.Resoc_core.Group.submit;
      Engine.run ~until:horizon engine;
      let stats = group.Resoc_core.Group.stats () in
      let name = group.Resoc_core.Group.protocol in
      Alcotest.(check int) (name ^ " completed") 1600 stats.Stats.completed;
      Alcotest.(check int) (name ^ " view changes") 0 stats.Stats.view_changes;
      let p99 = Stats.Histogram.percentile stats.Stats.latency 99.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s p99 %.0f below vc_timeout" name p99)
        true
        (p99 < float_of_int spec.vc_timeout))
    [ `Pbft; `Minbft; `A2m_bft; `Cheapbft; `Paxos ]

let test_paxos_batching_completes () =
  let engine = Engine.create () in
  let config = { Paxos.default_config with f = 1; n_clients = 8; batching = some_batching () } in
  let n = Paxos.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 8) () in
  let sys = Paxos.start engine fabric config () in
  for client = 0 to 7 do
    submit_series (Paxos.submit sys) ~client ~count:4
  done;
  Engine.run ~until:horizon engine;
  Alcotest.(check int) "all completed" 32 (Paxos.stats sys).Stats.completed;
  for r = 0 to n - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "replica %d" r)
      (Int64.mul 8L (sum_1_to 4))
      (Paxos.replica_state sys ~replica:r)
  done

let test_paxos_batching_survives_failover () =
  let engine = Engine.create () in
  let config = { Paxos.default_config with f = 1; n_clients = 4; batching = some_batching () } in
  let n = Paxos.n_replicas config in
  let behaviors = Array.make n Behavior.honest in
  behaviors.(0) <- Behavior.crash_at 10;
  let fabric = Transport.hub engine ~n:(n + 4) () in
  let sys = Paxos.start engine fabric config ~behaviors () in
  for client = 0 to 3 do
    submit_series (Paxos.submit sys) ~client ~count:3
  done;
  Engine.run ~until:horizon engine;
  Alcotest.(check int) "completed through failover" 12 (Paxos.stats sys).Stats.completed;
  Alcotest.(check int64) "survivors agree" (Paxos.replica_state sys ~replica:1)
    (Paxos.replica_state sys ~replica:2)

let test_pb_batching_completes () =
  let engine = Engine.create () in
  let config =
    { Primary_backup.default_config with n_clients = 8; batching = some_batching () }
  in
  let n = Primary_backup.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 8) () in
  let sys = Primary_backup.start engine fabric config () in
  for client = 0 to 7 do
    submit_series (Primary_backup.submit sys) ~client ~count:4
  done;
  Engine.run ~until:horizon engine;
  let s = Primary_backup.stats sys in
  Alcotest.(check int) "all completed" 32 s.Stats.completed;
  Alcotest.(check int64) "backup synced" (Primary_backup.replica_state sys ~replica:0)
    (Primary_backup.replica_state sys ~replica:1)

let test_pb_batching_exactly_once () =
  (* Retransmissions of a buffered request must not enter a second batch:
     the accumulator would show the double execution. *)
  let engine = Engine.create () in
  let config =
    {
      Primary_backup.default_config with
      n_clients = 2;
      request_timeout = 50;  (* shorter than the 200-cycle window: forces retx *)
      batching = some_batching ~window:200 ();
    }
  in
  let n = Primary_backup.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 2) () in
  let sys = Primary_backup.start engine fabric config () in
  submit_series (Primary_backup.submit sys) ~client:0 ~count:3;
  submit_series (Primary_backup.submit sys) ~client:1 ~count:3;
  Engine.run ~until:horizon engine;
  let s = Primary_backup.stats sys in
  Alcotest.(check int) "completed" 6 s.Stats.completed;
  Alcotest.(check int64) "executed exactly once" (Int64.mul 2L (sum_1_to 3))
    (Primary_backup.replica_state sys ~replica:0)

(* Invalid batching configs fail at construction instead of hanging the
   first submit (max_batch = 0 seals empty batches forever) or stalling
   every request until a view change (pipeline_depth = 0 never seals).
   Inert configs are checked too, and so is the hybrids' legacy window. *)
let test_invalid_batching_rejected () =
  (* Every default config has 2 clients. *)
  let on_hub n start =
    let engine = Engine.create () in
    ignore (start engine (Transport.hub engine ~n:(n + 2) ()))
  in
  let starts (batching : Types.batching) =
    let batching = Some batching in
    [
      ( "pbft",
        fun () ->
          let config = { Pbft.default_config with batching } in
          on_hub (Pbft.n_replicas config) (fun e fab -> Pbft.start e fab config ()) );
      ( "paxos",
        fun () ->
          let config = { Paxos.default_config with batching } in
          on_hub (Paxos.n_replicas config) (fun e fab -> Paxos.start e fab config ()) );
      ( "cheapbft",
        fun () ->
          let config = { Cheapbft.default_config with batching } in
          on_hub (Cheapbft.n_replicas config) (fun e fab -> Cheapbft.start e fab config ()) );
      ( "primary-backup",
        fun () ->
          let config = { Primary_backup.default_config with batching } in
          on_hub (Primary_backup.n_replicas config) (fun e fab ->
              Primary_backup.start e fab config ()) );
      ( "minbft",
        fun () ->
          let config = { Minbft.default_config with batching } in
          on_hub (Minbft.n_replicas config) (fun e fab -> Minbft.start e fab config ()) );
    ]
  in
  let rejects start = match start () with () -> false | exception Invalid_argument _ -> true in
  let bad =
    [
      { Types.window_cycles = 10; max_batch = 0; pipeline_depth = 4 };
      { Types.window_cycles = 50; max_batch = 8; pipeline_depth = 0 };
      { Types.window_cycles = -1; max_batch = 8; pipeline_depth = 4 };
      (* inert: no batcher would be built, still refused *)
      { Types.window_cycles = 0; max_batch = 1; pipeline_depth = 0 };
      { Types.window_cycles = 0; max_batch = 0; pipeline_depth = 1 };
    ]
  in
  List.iter
    (fun (b : Types.batching) ->
      List.iter
        (fun (name, start) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s rejects w%d/b%d/d%d" name b.Types.window_cycles b.Types.max_batch
               b.Types.pipeline_depth)
            true (rejects start))
        (starts b))
    bad;
  let good =
    [
      { Types.window_cycles = 0; max_batch = 1; pipeline_depth = 1 };
      { Types.window_cycles = 50; max_batch = 8; pipeline_depth = 4 };
      { Types.window_cycles = 50; max_batch = 4; pipeline_depth = 2 };
    ]
  in
  List.iter
    (fun b ->
      List.iter (fun (name, start) -> Alcotest.(check bool) name false (rejects start)) (starts b))
    good;
  (* The hybrids' legacy window runs on the same Batcher and the same check. *)
  let legacy ~batch_window ~max_batch () =
    let config = { Minbft.default_config with batch_window; max_batch } in
    on_hub (Minbft.n_replicas config) (fun e fab -> Minbft.start e fab config ())
  in
  Alcotest.(check bool) "legacy window, max_batch 0" true
    (rejects (legacy ~batch_window:10 ~max_batch:0));
  Alcotest.(check bool) "legacy window, max_batch 16" false
    (rejects (legacy ~batch_window:10 ~max_batch:16))

(* Every protocol names itself in its construction and submit errors:
   a fabric one endpoint short, and a client id past the configured
   ones (every default config has 2 clients). *)
let test_errors_name_the_module () =
  let on_hub start ~endpoints =
    let engine = Engine.create () in
    start engine (Transport.hub engine ~n:endpoints ())
  in
  let protocols =
    [
      ( "Pbft",
        Pbft.n_replicas Pbft.default_config,
        on_hub (fun e fab -> Pbft.submit (Pbft.start e fab Pbft.default_config ())) );
      ( "Minbft",
        Minbft.n_replicas Minbft.default_config,
        on_hub (fun e fab -> Minbft.submit (Minbft.start e fab Minbft.default_config ())) );
      ( "A2m_bft",
        A2m_bft.n_replicas A2m_bft.default_config,
        on_hub (fun e fab -> A2m_bft.submit (A2m_bft.start e fab A2m_bft.default_config ())) );
      ( "Cheapbft",
        Cheapbft.n_replicas Cheapbft.default_config,
        on_hub (fun e fab -> Cheapbft.submit (Cheapbft.start e fab Cheapbft.default_config ())) );
      ( "Paxos",
        Paxos.n_replicas Paxos.default_config,
        on_hub (fun e fab -> Paxos.submit (Paxos.start e fab Paxos.default_config ())) );
      ( "Primary_backup",
        Primary_backup.n_replicas Primary_backup.default_config,
        on_hub (fun e fab ->
            Primary_backup.submit (Primary_backup.start e fab Primary_backup.default_config ())) );
    ]
  in
  let message f = match f () with () -> "no exception" | exception Invalid_argument m -> m in
  List.iter
    (fun (name, n, boot) ->
      Alcotest.(check string) (name ^ " start") (name ^ ".start: fabric too small")
        (message (fun () -> boot ~endpoints:(n + 1) ~client:0 ~payload:1L));
      let submit = boot ~endpoints:(n + 2) in
      Alcotest.(check string) (name ^ " submit") (name ^ ".submit: unknown client")
        (message (fun () -> submit ~client:2 ~payload:1L)))
    protocols

(* --- Paxos --- *)

let paxos_setup ?(f = 1) ?(n_clients = 1) ?behaviors () =
  let engine = Engine.create () in
  let config = { Paxos.default_config with f; n_clients } in
  let n = Paxos.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + n_clients) () in
  let sys = Paxos.start engine fabric config ?behaviors () in
  (engine, sys, n)

let test_paxos_happy_path () =
  let engine, sys, n = paxos_setup () in
  submit_series (Paxos.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Paxos.stats sys in
  Alcotest.(check int) "completed" 5 s.Stats.completed;
  for r = 0 to n - 1 do
    Alcotest.(check int64) (Printf.sprintf "replica %d" r) (sum_1_to 5) (Paxos.replica_state sys ~replica:r)
  done

let test_paxos_crash_follower () =
  let behaviors = [| Behavior.honest; Behavior.crash_at 0; Behavior.honest |] in
  let engine, sys, _ = paxos_setup ~behaviors () in
  submit_series (Paxos.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  Alcotest.(check int) "completed" 5 (Paxos.stats sys).Stats.completed

let test_paxos_leader_failover () =
  let behaviors = [| Behavior.crash_at 10; Behavior.honest; Behavior.honest |] in
  let engine, sys, _ = paxos_setup ~behaviors () in
  submit_series (Paxos.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Paxos.stats sys in
  Alcotest.(check int) "completed" 5 s.Stats.completed;
  Alcotest.(check bool) "term advanced" true (Paxos.term sys ~replica:1 >= 1);
  Alcotest.(check int64) "survivors agree" (Paxos.replica_state sys ~replica:1)
    (Paxos.replica_state sys ~replica:2)

let test_paxos_cheaper_than_pbft () =
  let run_paxos () =
    let engine, sys, _ = paxos_setup () in
    submit_series (Paxos.submit sys) ~client:0 ~count:10;
    Engine.run ~until:horizon engine;
    (Paxos.stats sys).Stats.completed
  in
  Alcotest.(check int) "paxos completes" 10 (run_paxos ())

let test_paxos_blind_to_byzantine_leader () =
  (* The crash-model client (quorum 1) accepts a corrupt leader's reply —
     the vulnerability BFT exists to close. *)
  let behaviors =
    [| Behavior.byzantine Behavior.Corrupt_execution; Behavior.honest; Behavior.honest |]
  in
  let engine, sys, _ = paxos_setup ~behaviors () in
  submit_series (Paxos.submit sys) ~client:0 ~count:3;
  Engine.run ~until:horizon engine;
  let s = Paxos.stats sys in
  Alcotest.(check int) "completed (wrongly!)" 3 s.Stats.completed;
  Alcotest.(check int) "corruption undetected by quorum" 0 s.Stats.wrong_replies

(* --- Primary-backup --- *)

let pb_setup ?(n_backups = 1) ?(n_clients = 1) ?behaviors () =
  let engine = Engine.create () in
  let config = { Primary_backup.default_config with n_backups; n_clients } in
  let n = Primary_backup.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + n_clients) () in
  let sys = Primary_backup.start engine fabric config ?behaviors () in
  (engine, sys, n)

let test_pb_happy_path () =
  let engine, sys, _ = pb_setup () in
  submit_series (Primary_backup.submit sys) ~client:0 ~count:5;
  Engine.run ~until:horizon engine;
  let s = Primary_backup.stats sys in
  Alcotest.(check int) "completed" 5 s.Stats.completed;
  Alcotest.(check int64) "backup synced" (Primary_backup.replica_state sys ~replica:0)
    (Primary_backup.replica_state sys ~replica:1)

let test_pb_cheapest_messages () =
  (* Passive replication with one backup moves far fewer messages than any
     quorum protocol: 1 update per request (plus heartbeats). *)
  let engine = Engine.create () in
  let config = { Primary_backup.default_config with n_clients = 1 } in
  let fabric = Transport.hub engine ~n:3 () in
  let sys = Primary_backup.start engine fabric config () in
  submit_series (Primary_backup.submit sys) ~client:0 ~count:5;
  Engine.run ~until:20_000 engine;
  Alcotest.(check int) "completed" 5 (Primary_backup.stats sys).Stats.completed

let test_pb_failover () =
  let behaviors = [| Behavior.crash_at 5_000; Behavior.honest |] in
  let engine, sys, _ = pb_setup ~behaviors () in
  Engine.every engine ~period:2_000 (fun () ->
      if Engine.now engine <= 40_000 then Primary_backup.submit sys ~client:0 ~payload:1L);
  Engine.run ~until:horizon engine;
  let s = Primary_backup.stats sys in
  Alcotest.(check bool) "failover happened" true (s.Stats.view_changes >= 1);
  Alcotest.(check int) "backup took over" 1 (Primary_backup.current_primary sys);
  Alcotest.(check bool) "requests completed across failover" true (s.Stats.completed >= 15)

let test_pb_failover_window_visible () =
  (* Requests issued while the primary is dead but undetected are lost until
     retransmission: recovery is not seamless (the paper's point). *)
  let behaviors = [| Behavior.crash_at 5_000; Behavior.honest |] in
  let engine, sys, _ = pb_setup ~behaviors () in
  Engine.every engine ~period:1_000 (fun () ->
      if Engine.now engine <= 30_000 then Primary_backup.submit sys ~client:0 ~payload:1L);
  Engine.run ~until:horizon engine;
  let s = Primary_backup.stats sys in
  Alcotest.(check bool) "retransmissions during failover" true (s.Stats.retransmissions >= 1)

let () =
  Alcotest.run "resoc_repl"
    [
      ( "app",
        [
          Alcotest.test_case "accumulator" `Quick test_app_accumulator;
          Alcotest.test_case "register" `Quick test_app_register;
          Alcotest.test_case "corrupted" `Quick test_app_corrupted;
          Alcotest.test_case "kv basic" `Quick test_app_kv;
          Alcotest.test_case "kv codec roundtrip" `Quick test_app_kv_codec_roundtrip;
          Alcotest.test_case "kv order sensitive" `Quick test_app_kv_order_sensitive;
          Alcotest.test_case "kv malformed noop" `Quick test_app_kv_malformed_noop;
        ] );
      ( "transport",
        [
          Alcotest.test_case "delivery and latency" `Quick test_hub_delivery_and_latency;
          Alcotest.test_case "detach" `Quick test_hub_detach;
          Alcotest.test_case "counters" `Quick test_hub_counters;
        ] );
      ( "pbft",
        [
          Alcotest.test_case "happy path" `Quick test_pbft_happy_path;
          Alcotest.test_case "latency recorded" `Quick test_pbft_latency_recorded;
          Alcotest.test_case "crash backup tolerated" `Quick test_pbft_crash_backup_tolerated;
          Alcotest.test_case "crash primary view change" `Quick test_pbft_crash_primary_view_change;
          Alcotest.test_case "silent byzantine primary" `Quick test_pbft_silent_byzantine_primary;
          Alcotest.test_case "equivocating primary evicted" `Quick test_pbft_equivocating_primary_evicted;
          Alcotest.test_case "corrupt replies filtered" `Quick test_pbft_corrupt_replies_filtered;
          Alcotest.test_case "two faults stall f=1" `Quick test_pbft_two_faults_stall_f1;
          Alcotest.test_case "f=2 tolerates two" `Quick test_pbft_f2_tolerates_two;
          Alcotest.test_case "multiple clients" `Quick test_pbft_multiple_clients;
          Alcotest.test_case "exactly-once under retries" `Quick test_pbft_exactly_once_under_retries;
          Alcotest.test_case "offline/online cycle" `Quick test_pbft_offline_online_cycle;
          Alcotest.test_case "determinism" `Quick test_pbft_determinism;
        ] );
      ( "minbft",
        [
          Alcotest.test_case "happy path" `Quick test_minbft_happy_path;
          Alcotest.test_case "fewer messages than pbft" `Quick test_minbft_fewer_messages_than_pbft;
          Alcotest.test_case "crash backup tolerated" `Quick test_minbft_crash_backup_tolerated;
          Alcotest.test_case "crash primary view change" `Quick test_minbft_crash_primary_view_change;
          Alcotest.test_case "equivocation harmless" `Quick test_minbft_equivocation_harmless;
          Alcotest.test_case "plain usig seu stalls" `Quick test_minbft_plain_usig_seu_stalls_primary;
          Alcotest.test_case "secded usig survives seu" `Quick test_minbft_secded_usig_survives_seu;
          Alcotest.test_case "corrupt replies filtered" `Quick test_minbft_corrupt_replies_filtered;
          Alcotest.test_case "offline/online" `Quick test_minbft_offline_online;
          Alcotest.test_case "batching preserves semantics" `Quick
            test_minbft_batching_preserves_semantics;
          Alcotest.test_case "batching cuts certificates" `Quick test_minbft_batching_cuts_certificates;
          Alcotest.test_case "batching with primary crash" `Quick test_minbft_batching_with_primary_crash;
        ] );
      ( "paxos",
        [
          Alcotest.test_case "happy path" `Quick test_paxos_happy_path;
          Alcotest.test_case "crash follower" `Quick test_paxos_crash_follower;
          Alcotest.test_case "leader failover" `Quick test_paxos_leader_failover;
          Alcotest.test_case "completes workload" `Quick test_paxos_cheaper_than_pbft;
          Alcotest.test_case "blind to byzantine leader" `Quick test_paxos_blind_to_byzantine_leader;
        ] );
      ( "primary-backup",
        [
          Alcotest.test_case "happy path" `Quick test_pb_happy_path;
          Alcotest.test_case "low message cost" `Quick test_pb_cheapest_messages;
          Alcotest.test_case "failover" `Quick test_pb_failover;
          Alcotest.test_case "failover window visible" `Quick test_pb_failover_window_visible;
        ] );
      ( "batching",
        [
          Alcotest.test_case "pbft preserves semantics" `Quick
            test_pbft_batching_preserves_semantics;
          Alcotest.test_case "pbft cuts messages" `Quick test_pbft_batching_cuts_messages;
          Alcotest.test_case "pbft armed config identical" `Quick
            test_pbft_batching_armed_identical;
          Alcotest.test_case "pbft pipeline depth one" `Quick test_pbft_batching_depth_one;
          Alcotest.test_case "pbft with checkpointing" `Quick
            test_pbft_batching_with_checkpointing;
          Alcotest.test_case "resumes at checkpoint" `Quick test_batching_resumes_at_checkpoint;
          Alcotest.test_case "paxos completes" `Quick test_paxos_batching_completes;
          Alcotest.test_case "paxos survives failover" `Quick
            test_paxos_batching_survives_failover;
          Alcotest.test_case "primary-backup completes" `Quick test_pb_batching_completes;
          Alcotest.test_case "primary-backup exactly once" `Quick
            test_pb_batching_exactly_once;
          Alcotest.test_case "invalid config rejected" `Quick test_invalid_batching_rejected;
        ] );
      ( "construction",
        [ Alcotest.test_case "errors name the module" `Quick test_errors_name_the_module ] );
    ]
