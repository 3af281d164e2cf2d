(* Cross-protocol determinism snapshots.

   Every value here was captured from the replication layer as of the
   slot-ring/bitset rewrite and pinned as an expectation: the E3 (BFT on
   the NoC), E4 (passive vs active under a primary crash) and E9 (hybrid
   complexity crossover) summary numbers must stay bit-identical across
   purely structural changes to lib/repl. The second group pins the paths
   the shared replica core serves for every protocol: batching, checkpoint
   wipe-and-rejoin, legacy free-copy rejoin, Byzantine PBFT primaries,
   CheapBFT in the E3/E4 shapes, MinBFT over NoC multicast and a primary
   crashed from the start under 1 and 9 clients. Floats are compared by
   their IEEE-754 bit patterns, so even a 1-ulp drift fails.

   If a PR changes these values it changed protocol behaviour, not just
   data layout — that needs an explicit expectation refresh plus a
   CHANGES.md note, never a silent update. *)

module Engine = Resoc_des.Engine
module Histogram = Resoc_des.Metrics.Histogram
module Behavior = Resoc_fault.Behavior
module Complexity = Resoc_hw.Complexity
module Stats = Resoc_repl.Stats
module Soc = Resoc_core.Soc
module Group = Resoc_core.Group
module Generator = Resoc_workload.Generator

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* --- E3: a BFT group on a 4x4 mesh NoC serving a client burst --- *)

let e3_summary kind =
  let soc =
    Soc.create { Soc.default_config with mesh_width = 4; mesh_height = 4; seed = 77L }
  in
  let spec = { Group.default_spec with kind; f = 1; n_clients = 2 } in
  let group = Group.build (Soc.engine soc) (Group.On_soc soc) spec in
  Generator.burst ~n_per_client:10 ~n_clients:2 ~submit:group.Group.submit;
  Engine.run ~until:2_000_000 (Soc.engine soc);
  let s = group.Group.stats () in
  Printf.sprintf "completed=%d submitted=%d retx=%d vc=%d msgs=%d bytes=%d mean=%s p99=%s state=%Ld"
    s.Stats.completed s.Stats.submitted s.Stats.retransmissions s.Stats.view_changes
    (Soc.noc_messages soc) (Soc.noc_bytes soc)
    (bits (Histogram.mean s.Stats.latency))
    (bits (Histogram.percentile s.Stats.latency 99.0))
    (group.Group.replica_state ~replica:0)

(* --- E4: primary crash at t=50k under a periodic load --- *)

let e4_summary kind =
  let engine = Engine.create ~seed:42L () in
  let spec = { Group.default_spec with kind; f = 1; n_clients = 1; request_timeout = 3_000 } in
  let n = Group.n_replicas_of spec in
  let behaviors = Array.make n Behavior.honest in
  behaviors.(0) <- Behavior.crash_at 50_000;
  let spec = { spec with Group.behaviors = Some behaviors } in
  let group = Group.build engine (Group.Hub { latency = 5 }) spec in
  Generator.periodic engine ~period:1_000 ~until:250_000 ~n_clients:1
    ~submit:group.Group.submit ();
  Engine.run ~until:300_000 engine;
  let s = group.Group.stats () in
  Printf.sprintf "completed=%d submitted=%d retx=%d vc=%d msgs=%d p99=%s max=%s state=%Ld"
    s.Stats.completed s.Stats.submitted s.Stats.retransmissions s.Stats.view_changes
    (group.Group.messages ())
    (bits (Histogram.percentile s.Stats.latency 99.0))
    (bits (Histogram.max s.Stats.latency))
    (group.Group.replica_state ~replica:(n - 1))

(* --- E9: hybrid complexity crossover (pure arithmetic) --- *)

let e9_summary () =
  let p = Complexity.default in
  let crossover =
    match Complexity.crossover p ~max_complexity:1000 with Some c -> c | None -> -1
  in
  Printf.sprintf "crossover=%d gates=%d pc8=%s ps8=%s" crossover
    (Complexity.circuit_gates p ~complexity:crossover)
    (bits (Complexity.p_fail_circuit p ~complexity:8))
    (bits (Complexity.p_fail_software_hybrid p ~complexity:8))

(* --- paths through the shared replica core --- *)

module Transport = Resoc_repl.Transport
module Cheapbft = Resoc_repl.Cheapbft
module Primary_backup = Resoc_repl.Primary_backup

(* Closed-loop burst on a hub; [churn] takes [replica] offline and back
   online at the given cycles. Every replica's final state is reported so
   a rejoin that lands on the wrong state shows up. *)
let run_summary ~engine ~n ~submit ~stats ~messages ~state ~set_offline ~set_online ?churn
    ~clients ~per_client () =
  Generator.burst ~n_per_client:per_client ~n_clients:clients ~submit;
  (match churn with
  | Some (replica, off, on) ->
    ignore (Engine.schedule engine ~delay:off (fun () -> set_offline ~replica));
    ignore (Engine.schedule engine ~delay:on (fun () -> set_online ~replica))
  | None -> ());
  Engine.run ~until:1_000_000 engine;
  let s : Stats.t = stats () in
  Printf.sprintf
    "completed=%d submitted=%d retx=%d wrong=%d vc=%d ckpt=%d xfer=%d xbytes=%d msgs=%d mean=%s \
     p99=%s states=%s"
    s.Stats.completed s.Stats.submitted s.Stats.retransmissions s.Stats.wrong_replies
    s.Stats.view_changes s.Stats.checkpoints s.Stats.state_transfers s.Stats.transfer_bytes
    (messages ()) (bits (Histogram.mean s.Stats.latency))
    (bits (Histogram.percentile s.Stats.latency 99.0))
    (String.concat "," (List.init n (fun replica -> Int64.to_string (state ~replica))))

let group_summary ?churn ?(clients = 4) ?(per_client = 200) spec =
  let engine = Engine.create ~seed:7L () in
  let group = Group.build engine (Group.Hub { latency = 5 }) { spec with Group.n_clients = clients } in
  run_summary ~engine ~n:group.Group.n_replicas ~submit:group.Group.submit
    ~stats:group.Group.stats ~messages:group.Group.messages
    ~state:(fun ~replica -> group.Group.replica_state ~replica)
    ~set_offline:group.Group.set_offline ~set_online:group.Group.set_online ?churn ~clients
    ~per_client ()

let batching = Some { Resoc_repl.Types.window_cycles = 50; max_batch = 8; pipeline_depth = 4 }

let checkpoint = Some { Resoc_repl.Checkpoint.interval = 32; window = 8; chunk = 8 }

let batched kind () =
  group_summary ~clients:8 ~per_client:16 { Group.default_spec with kind; batching }

(* Replica 1 (a backup everywhere; an active for CheapBFT) is wiped and
   rejoins by certified state transfer. *)
let wiped kind () =
  group_summary ~churn:(1, 1_500, 3_000) { Group.default_spec with kind; checkpoint }

(* Without checkpoints a rejoining replica copies the most advanced
   peer. Group keeps CheapBFT and primary-backup replicas online in that
   model, so those two are driven through their own modules. *)
let legacy_rejoin kind () =
  let churn = (1, 1_500, 3_000) in
  match kind with
  | `Cheapbft ->
    let engine = Engine.create ~seed:7L () in
    let config = { Cheapbft.default_config with n_clients = 4 } in
    let n = Cheapbft.n_replicas config in
    let fabric = Transport.hub engine ~n:(n + 4) () in
    let sys = Cheapbft.start engine fabric config () in
    run_summary ~engine ~n ~submit:(Cheapbft.submit sys) ~stats:(fun () -> Cheapbft.stats sys)
      ~messages:fabric.Transport.messages_sent ~state:(Cheapbft.replica_state sys)
      ~set_offline:(Cheapbft.set_offline sys) ~set_online:(Cheapbft.set_online sys) ~churn
      ~clients:4 ~per_client:200 ()
  | `Primary_backup ->
    let engine = Engine.create ~seed:7L () in
    let config = { Primary_backup.default_config with n_backups = 2; n_clients = 4 } in
    let n = Primary_backup.n_replicas config in
    let fabric = Transport.hub engine ~n:(n + 4) () in
    let sys = Primary_backup.start engine fabric config () in
    run_summary ~engine ~n ~submit:(Primary_backup.submit sys)
      ~stats:(fun () -> Primary_backup.stats sys) ~messages:fabric.Transport.messages_sent
      ~state:(Primary_backup.replica_state sys) ~set_offline:(Primary_backup.set_offline sys)
      ~set_online:(Primary_backup.set_online sys) ~churn ~clients:4 ~per_client:200 ()
  | kind -> group_summary ~churn { Group.default_spec with kind }

let pbft_behaving ?batching ~replica behavior () =
  let behaviors = Array.make 4 Behavior.honest in
  behaviors.(replica) <- behavior;
  group_summary { Group.default_spec with kind = `Pbft; behaviors = Some behaviors; batching }

let e3_minbft_mcast () =
  let soc =
    Soc.create
      {
        Soc.default_config with
        mesh_width = 4;
        mesh_height = 4;
        seed = 77L;
        noc = { Soc.default_config.noc with Resoc_noc.Network.multicast = true };
      }
  in
  let spec = { Group.default_spec with kind = `Minbft; f = 1; n_clients = 2; multicast = true } in
  let group = Group.build (Soc.engine soc) (Group.On_soc soc) spec in
  Generator.burst ~n_per_client:10 ~n_clients:2 ~submit:group.Group.submit;
  Engine.run ~until:2_000_000 (Soc.engine soc);
  let s = group.Group.stats () in
  Printf.sprintf "completed=%d msgs=%d bytes=%d mean=%s p99=%s state=%Ld" s.Stats.completed
    (Soc.noc_messages soc) (Soc.noc_bytes soc)
    (bits (Histogram.mean s.Stats.latency))
    (bits (Histogram.percentile s.Stats.latency 99.0))
    (group.Group.replica_state ~replica:0)

(* Replica 0, the first primary, crashed from cycle 0 on a 5-cycle hub,
   f=1, 8 requests per client. At 1 client one view change suffices; at
   9 the request timers escalate once per pending request, so the count
   grows with the load. *)
let crashed_primary kind () =
  let row clients =
    let engine = Engine.create ~seed:7L () in
    let spec = { Group.default_spec with kind; n_clients = clients } in
    let behaviors = Array.make (Group.n_replicas_of spec) Behavior.honest in
    behaviors.(0) <- Behavior.crash_at 0;
    let group =
      Group.build engine (Group.Hub { latency = 5 }) { spec with Group.behaviors = Some behaviors }
    in
    Generator.burst ~n_per_client:8 ~n_clients:clients ~submit:group.Group.submit;
    Engine.run ~until:1_000_000 engine;
    let s = group.Group.stats () in
    Printf.sprintf "clients=%d completed=%d vc=%d msgs=%d" clients s.Stats.completed
      s.Stats.view_changes (group.Group.messages ())
  in
  row 1 ^ " " ^ row 9

(* --- pinned expectations --- *)

let expectations =
  [
    ( "batch/pbft",
      batched `Pbft,
      "completed=128 submitted=128 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 msgs=1792 \
       mean=4039000000000000 p99=4039000000000000 states=128,128,128,128" );
    ( "wipe/pbft",
      wiped `Pbft,
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=92 xfer=1 xbytes=168 \
       msgs=26365 mean=4039000000000000 p99=4039000000000000 states=800,800,800,800" );
    ( "legacy-rejoin/pbft",
      legacy_rejoin `Pbft,
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 \
       msgs=26080 mean=4039000000000000 p99=4039000000000000 states=800,800,800,800" );
    ( "batch/minbft",
      batched `Minbft,
      "completed=128 submitted=128 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 msgs=1120 \
       mean=402e000000000000 p99=402e000000000000 states=128,128,128" );
    ( "wipe/minbft",
      wiped `Minbft,
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=66 xfer=1 xbytes=1128 \
       msgs=10146 mean=4030e00000000000 p99=4034000000000000 states=800,800,800" );
    ( "legacy-rejoin/minbft",
      legacy_rejoin `Minbft,
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 \
       msgs=10000 mean=4030e00000000000 p99=4034000000000000 states=800,800,800" );
    ( "batch/a2m_bft",
      (batched `A2m_bft),
      "completed=128 submitted=128 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 msgs=1120 \
       mean=402e000000000000 p99=402e000000000000 states=128,128,128" );
    ( "wipe/a2m_bft",
      (wiped `A2m_bft),
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=66 xfer=1 xbytes=1128 \
       msgs=10146 mean=4030e00000000000 p99=4034000000000000 states=800,800,800" );
    ( "legacy-rejoin/a2m_bft",
      (legacy_rejoin `A2m_bft),
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 \
       msgs=10000 mean=4030e00000000000 p99=4034000000000000 states=800,800,800" );
    ( "batch/cheapbft",
      batched `Cheapbft,
      "completed=128 submitted=128 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 msgs=929 \
       mean=4034000000000000 p99=4034000000000000 states=128,128,128" );
    ( "wipe/cheapbft",
      wiped `Cheapbft,
      "completed=800 submitted=800 retx=4 wrong=0 vc=4 ckpt=66 xfer=1 xbytes=584 \
       msgs=9913 mean=4042700000000000 p99=4034000000000000 states=800,800,800" );
    ( "legacy-rejoin/cheapbft",
      legacy_rejoin `Cheapbft,
      "completed=800 submitted=800 retx=4 wrong=0 vc=4 ckpt=0 xfer=0 xbytes=0 msgs=9793 \
       mean=4042700000000000 p99=4034000000000000 states=800,800,800" );
    ( "batch/paxos",
      batched `Paxos,
      "completed=128 submitted=128 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 msgs=1120 \
       mean=4034000000000000 p99=4034000000000000 states=128,128,128" );
    ( "wipe/paxos",
      wiped `Paxos,
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=66 xfer=1 xbytes=984 \
       msgs=10440 mean=4034000000000000 p99=4034000000000000 states=800,800,800" );
    ( "legacy-rejoin/paxos",
      legacy_rejoin `Paxos,
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 \
       msgs=10296 mean=4034000000000000 p99=4034000000000000 states=800,800,800" );
    ( "batch/primary_backup",
      batched `Primary_backup,
      "completed=128 submitted=128 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 msgs=2400 \
       mean=4024000000000000 p99=4024000000000000 states=128,128" );
    ( "wipe/primary_backup",
      wiped `Primary_backup,
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=43 xfer=1 xbytes=168 \
       msgs=5228 mean=4024000000000000 p99=4024000000000000 states=800,800" );
    ( "legacy-rejoin/primary_backup",
      legacy_rejoin `Primary_backup,
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 msgs=8800 \
       mean=4024000000000000 p99=4024000000000000 states=800,800,800" );
    ( "e3/cheapbft",
      (fun () -> e3_summary `Cheapbft),
      "completed=20 submitted=20 retx=0 vc=0 msgs=181 bytes=17376 mean=405a000000000000 \
       p99=4060000000000000 state=20" );
    ( "e4/cheapbft",
      (fun () -> e4_summary `Cheapbft),
      "completed=249 submitted=249 retx=0 vc=1 msgs=2486 p99=4034000000000000 \
       max=40a3b20000000000 state=249" );
    ( "pbft/delay",
      pbft_behaving ~replica:0 (Behavior.byzantine (Behavior.Delay 300)),
      "completed=800 submitted=800 retx=0 wrong=0 vc=0 ckpt=0 xfer=0 xbytes=0 \
       msgs=28000 mean=4074500000000000 p99=4074500000000000 states=800,800,800,800" );
    ( "pbft/silent",
      pbft_behaving ~replica:0 (Behavior.byzantine ~from_cycle:1_000 Behavior.Silent),
      "completed=800 submitted=800 retx=0 wrong=0 vc=4 ckpt=0 xfer=0 xbytes=0 \
       msgs=22977 mean=4042c33333333333 p99=4039000000000000 states=160,800,800,800" );
    ( "pbft/corrupt",
      pbft_behaving ~replica:0 (Behavior.byzantine Behavior.Corrupt_execution),
      "completed=800 submitted=800 retx=0 wrong=800 vc=0 ckpt=0 xfer=0 xbytes=0 \
       msgs=28000 mean=4039000000000000 p99=4039000000000000 states=800,800,800,800" );
    ( "pbft/equivocate",
      pbft_behaving ~replica:0 (Behavior.byzantine Behavior.Equivocate),
      "completed=0 submitted=4 retx=1000 wrong=0 vc=1592 ckpt=0 xfer=0 xbytes=0 msgs=75496 \
       mean=0 p99=0 states=0,0,0,0" );
    ( "pbft/equivocate-batch",
      pbft_behaving ?batching ~replica:0 (Behavior.byzantine Behavior.Equivocate),
      "completed=0 submitted=4 retx=1000 wrong=0 vc=1592 ckpt=0 xfer=0 xbytes=0 msgs=75478 \
       mean=0 p99=0 states=0,0,0,0" );
    ( "e3/paxos",
      (fun () -> e3_summary `Paxos),
      "completed=20 submitted=20 retx=0 vc=0 msgs=280 bytes=13440 mean=4051800000000000 \
       p99=4051800000000000 state=20" );
    ( "e3/primary_backup",
      (fun () -> e3_summary `Primary_backup),
      "completed=20 submitted=20 retx=0 vc=0 msgs=4080 bytes=326400 mean=4046c00000000000 \
       p99=404f800000000000 state=20" );
    ( "e3/minbft-mcast",
      e3_minbft_mcast,
      "completed=20 msgs=281 bytes=26976 mean=4058666666666666 p99=405e000000000000 \
       state=20" );
    ( "e3/pbft",
      (fun () -> e3_summary `Pbft),
      "completed=20 submitted=20 retx=0 vc=0 msgs=700 bytes=44800 mean=405839999999999a \
       p99=405e000000000000 state=20" );
    ( "e3/minbft",
      (fun () -> e3_summary `Minbft),
      "completed=20 submitted=20 retx=0 vc=0 msgs=280 bytes=26880 mean=405a000000000000 \
       p99=4060000000000000 state=20" );
    ( "e3/a2m_bft",
      (fun () -> e3_summary `A2m_bft),
      "completed=20 submitted=20 retx=0 vc=0 msgs=280 bytes=31360 mean=405d400000000000 \
       p99=4062000000000000 state=20" );
    ( "e4/primary_backup",
      (fun () -> e4_summary `Primary_backup),
      "completed=249 submitted=249 retx=1 vc=1 msgs=1593 p99=4024000000000000 \
       max=40a7840000000000 state=249" );
    ( "e4/paxos",
      (fun () -> e4_summary `Paxos),
      "completed=249 submitted=249 retx=0 vc=1 msgs=2895 p99=4034000000000000 \
       max=40a3ba0000000000 state=249" );
    ( "e4/minbft",
      (fun () -> e4_summary `Minbft),
      "completed=249 submitted=249 retx=0 vc=1 msgs=2695 p99=4034000000000000 \
       max=40a3ba0000000000 state=249" );
    ( "e4/pbft",
      (fun () -> e4_summary `Pbft),
      "completed=249 submitted=249 retx=0 vc=1 msgs=7131 p99=4039000000000000 \
       max=40a3c40000000000 state=249" );
    ( "crash/pbft",
      crashed_primary `Pbft,
      "clients=1 completed=8 vc=1 msgs=232 \
       clients=9 completed=72 vc=7 msgs=2271" );
    ( "crash/minbft",
      crashed_primary `Minbft,
      "clients=1 completed=8 vc=1 msgs=89 \
       clients=9 completed=72 vc=6 msgs=773" );
    ( "crash/a2m_bft",
      crashed_primary `A2m_bft,
      "clients=1 completed=8 vc=1 msgs=89 \
       clients=9 completed=72 vc=6 msgs=773" );
    ( "crash/cheapbft",
      crashed_primary `Cheapbft,
      "clients=1 completed=8 vc=1 msgs=89 \
       clients=9 completed=72 vc=6 msgs=885" );
    ( "crash/paxos",
      crashed_primary `Paxos,
      "clients=1 completed=8 vc=1 msgs=97 \
       clients=9 completed=72 vc=6 msgs=957" );
    ("e9/crossover", e9_summary, "crossover=14 gates=29500 pc8=3f5ca59d13891c00 ps8=3f66943aedc08600");
  ]

let test_one (name, compute, expected) () =
  let actual = compute () in
  Alcotest.(check string) name expected actual

let () =
  (* RESOC_SNAPSHOT=1 prints current values in pasteable form instead of
     testing, for refreshing the expectations after an intentional
     behavioural change. *)
  if Sys.getenv_opt "RESOC_SNAPSHOT" <> None then begin
    List.iter
      (fun (name, compute, _) -> Printf.printf "%-20s %s\n%!" name (compute ()))
      expectations;
    exit 0
  end;
  Alcotest.run "determinism"
    [
      ( "snapshots",
        List.map
          (fun ((name, _, _) as e) -> Alcotest.test_case name `Quick (test_one e))
          expectations );
    ]
