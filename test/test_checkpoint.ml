(* Tests for the checkpoint-certificate / state-transfer subsystem: digest
   and reply-cache snapshot units, the certificate round-trip through
   serve/feed/install, overflow pruning in the slot ring, a cross-protocol
   qcheck property that a wiped replica restored by certified transfer ends
   byte-identical to replicas that executed the full log, and mutation
   self-tests proving the two new invariants (exec_window,
   transfer_applied) catch deliberately broken implementations. *)

open Resoc_repl
module Engine = Resoc_des.Engine
module Check = Resoc_check.Check
module Inject = Resoc_check.Inject
module Group = Resoc_core.Group

let ckpt_config = { Checkpoint.interval = 4; window = 4; chunk = 3 }

let with_check = Check_fixture.with_check
let mutant_flagged = Check_fixture.mutant_flagged

(* --- digest / snapshot units -------------------------------------------- *)

let test_digest_deterministic () =
  let rids = [ (0, 3, 30L); (2, 7, 70L) ] in
  let d1 = Checkpoint.digest ~seq:8 ~state:42L ~rids in
  let d2 = Checkpoint.digest ~seq:8 ~state:42L ~rids in
  Alcotest.(check bool) "same inputs, same digest" true (Int64.equal d1 d2);
  Alcotest.(check bool) "state changes digest" false
    (Int64.equal d1 (Checkpoint.digest ~seq:8 ~state:43L ~rids));
  Alcotest.(check bool) "seq changes digest" false
    (Int64.equal d1 (Checkpoint.digest ~seq:12 ~state:42L ~rids));
  Alcotest.(check bool) "reply cache changes digest" false
    (Int64.equal d1 (Checkpoint.digest ~seq:8 ~state:42L ~rids:[ (0, 3, 30L) ]))

let test_snapshot_rids () =
  let rid_last = [| 5; min_int; 9 |] and rid_result = [| 50L; 0L; 90L |] in
  Alcotest.(check bool) "ascending, unrecorded clients skipped" true
    (Checkpoint.snapshot_rids ~rid_last ~rid_result = [ (0, 5, 50L); (2, 9, 90L) ])

(* --- certificate + transfer round-trip, no protocol involved ------------- *)

let test_cert_roundtrip () =
  let engine = Engine.create () in
  let obs = Engine.obs engine in
  let server = Checkpoint.create ckpt_config ~obs ~quorum:2 in
  let rid_last = [| 3 |] and rid_result = [| 33L |] in
  (* Not a boundary: no vote to broadcast. *)
  Alcotest.(check bool) "no digest off-boundary" true
    (Checkpoint.note_exec server ~seq:3 ~state:7L ~rid_last ~rid_result = None);
  let d =
    match Checkpoint.note_exec server ~seq:4 ~state:11L ~rid_last ~rid_result with
    | Some d -> d
    | None -> Alcotest.fail "boundary must produce a digest"
  in
  Alcotest.(check int) "own vote alone is no certificate" (-1)
    (Checkpoint.note_vote server ~seq:4 ~digest:d ~voter:0);
  Alcotest.(check int) "second vote completes the certificate" 0
    (Checkpoint.note_vote server ~seq:4 ~digest:d ~voter:1);
  Alcotest.(check int) "low watermark advanced" 4 (Checkpoint.low server);
  Alcotest.(check int) "high = low + window * interval" 20 (Checkpoint.high server);
  (* Ship it to a wiped receiver and make sure the digest re-verifies. *)
  let receiver = Checkpoint.create ckpt_config ~obs ~quorum:2 in
  Checkpoint.begin_recovery receiver ~now:100;
  let chunks =
    match Checkpoint.serve server ~view:2 ~have:(Checkpoint.low receiver)
            ~suffix:[ (5, []); (6, []) ]
    with
    | Some cs -> cs
    | None -> Alcotest.fail "server holds a stable checkpoint, must serve"
  in
  Alcotest.(check bool) "every chunk has a positive wire size" true
    (List.for_all (fun c -> Checkpoint.chunk_bytes c > 0) chunks);
  let completion =
    List.fold_left
      (fun acc chunk ->
        match acc with
        | Some _ -> acc
        | None -> Checkpoint.feed receiver ~src:0 ~now:160 chunk)
      None chunks
  in
  match completion with
  | None -> Alcotest.fail "last chunk must complete the assembly"
  | Some c ->
    Alcotest.(check bool) "completion verifies against the certificate" true
      c.Checkpoint.c_valid;
    Alcotest.(check int) "completion is the certified boundary" 4
      c.Checkpoint.c_cert.Checkpoint.cp_seq;
    Alcotest.(check bool) "suffix survives chunking in order" true
      (c.Checkpoint.c_suffix = [ (5, []); (6, []) ]);
    Alcotest.(check int) "latency accounted from begin_recovery" 60
      c.Checkpoint.c_elapsed;
    Checkpoint.install receiver c;
    Alcotest.(check bool) "recovery ended" false (Checkpoint.recovering receiver);
    Alcotest.(check int) "receiver rebased to the certificate" 4
      (Checkpoint.low receiver)

(* --- slot-ring overflow pruning ------------------------------------------ *)

let test_prune_outside () =
  (* Start at the growth cap so colliding outliers must overflow. *)
  let ring = Slot_ring.create ~capacity:(1 lsl 15) ~fresh:(fun _ -> ()) in
  let far = 1 lsl 15 in
  ignore (Slot_ring.bind ring 1);
  ignore (Slot_ring.bind ring (1 + far));
  ignore (Slot_ring.bind ring (1 + (2 * far)));
  Alcotest.(check bool) "outliers landed somewhere" true
    (Slot_ring.mem ring (1 + far) && Slot_ring.mem ring (1 + (2 * far)));
  Slot_ring.prune_outside ring ~low:0 ~high:100;
  Alcotest.(check bool) "in-window ring entry kept" true (Slot_ring.mem ring 1);
  Alcotest.(check bool) "overflow outliers swept" false
    (Slot_ring.mem ring (1 + far) || Slot_ring.mem ring (1 + (2 * far)))

(* --- cross-protocol wipe/restore property -------------------------------- *)

(* Run [kind] with checkpointing on, knock the last replica out long
   enough that the survivors certify checkpoints it never saw, bring it
   back wiped, and require (a) at least one certified state transfer and
   (b) end-state byte-identical to every replica that executed the full
   log. *)
let run_transfer kind (offline_at_k, gap_k) =
  let spec =
    { Group.default_spec with Group.kind; f = 1; n_clients = 1; checkpoint = Some ckpt_config }
  in
  let n = Group.n_replicas_of spec in
  (* CheapBFT passives already receive full state in every Update, so a
     rejoining passive has nothing to fetch; wipe an active replica there
     (which also exercises the transition protocol while it is down). *)
  let victim = match kind with `Cheapbft -> 1 | _ -> n - 1 in
  let engine = Engine.create () in
  let group = Group.build engine (Group.Hub { latency = 5 }) spec in
  let t_off = offline_at_k * 1_000 in
  let t_on = t_off + (gap_k * 1_000) in
  ignore (Engine.at engine ~time:t_off (fun () -> group.Group.set_offline ~replica:victim));
  ignore (Engine.at engine ~time:t_on (fun () -> group.Group.set_online ~replica:victim));
  Resoc_workload.Generator.periodic engine ~period:500 ~until:(t_on + 20_000) ~n_clients:1
    ~submit:(fun ~client ~payload -> group.Group.submit ~client ~payload)
    ();
  Engine.run ~until:(t_on + 300_000) engine;
  let s = group.Group.stats () in
  let states = List.init n (fun replica -> group.Group.replica_state ~replica) in
  let agree =
    match states with [] -> true | first :: rest -> List.for_all (Int64.equal first) rest
  in
  if not (s.Stats.state_transfers >= 1 && agree) then
    QCheck.Test.fail_reportf "off@%d on@%d transfers=%d states=%s" t_off t_on
      s.Stats.state_transfers
      (String.concat "," (List.map Int64.to_string states))
  else true

let arbitrary_window =
  QCheck.make
    ~print:(fun (a, g) -> Printf.sprintf "(off@%dk, gap %dk)" a g)
    QCheck.Gen.(pair (int_range 10 30) (int_range 5 25))

let transfer_prop kind name =
  QCheck.Test.make ~name:(name ^ " wiped replica restored byte-identical via transfer") ~count:8
    arbitrary_window (run_transfer kind)

(* --- mutation self-tests -------------------------------------------------- *)

(* A tight window (high = low + 1) forces execution to park at the
   watermark until each boundary certifies. Two clients keep two
   consensus instances in flight, so commits land back-to-back and only
   the gate separates execution from the not-yet-certified boundary. *)
let run_gated_pbft () =
  let engine = Engine.create () in
  let config =
    { Pbft.default_config with
      Pbft.f = 1;
      n_clients = 2;
      checkpoint = Some { Checkpoint.interval = 1; window = 1; chunk = 4 };
    }
  in
  let fabric = Transport.hub engine ~n:(Pbft.n_replicas config + 2) () in
  let sys = Pbft.start engine fabric config () in
  for i = 1 to 4 do
    Pbft.submit sys ~client:0 ~payload:(Int64.of_int i);
    Pbft.submit sys ~client:1 ~payload:(Int64.of_int (i + 100))
  done;
  Engine.run ~until:200_000 engine;
  (Pbft.stats sys).Stats.completed

let test_mutant_watermark_overrun () =
  with_check (fun () ->
      Alcotest.(check int) "gated pbft still completes" 8 (run_gated_pbft ());
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0);
      mutant_flagged ~knob:Checkpoint.test_ignore_watermarks ~sub:"watermark window"
        (fun () -> ignore (run_gated_pbft ())))

let run_transfer_pbft () =
  let engine = Engine.create () in
  let config =
    { Pbft.default_config with Pbft.f = 1; n_clients = 1; checkpoint = Some ckpt_config }
  in
  let n = Pbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 1) () in
  let sys = Pbft.start engine fabric config () in
  ignore (Engine.at engine ~time:10_000 (fun () -> Pbft.set_offline sys ~replica:(n - 1)));
  ignore (Engine.at engine ~time:25_000 (fun () -> Pbft.set_online sys ~replica:(n - 1)));
  Resoc_workload.Generator.periodic engine ~period:500 ~until:45_000 ~n_clients:1
    ~submit:(fun ~client ~payload -> Pbft.submit sys ~client ~payload)
    ();
  Engine.run ~until:300_000 engine;
  (Pbft.stats sys).Stats.state_transfers

let test_mutant_unverified_transfer () =
  with_check (fun () ->
      Alcotest.(check bool) "unmutated transfer verifies and installs" true
        (run_transfer_pbft () >= 1);
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0);
      mutant_flagged ~knob:Checkpoint.test_unverified_transfer ~sub:"does not match" (fun () ->
          ignore (run_transfer_pbft ())))

let () =
  Alcotest.run "resoc_checkpoint"
    [
      ( "units",
        [
          Alcotest.test_case "digest deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "snapshot_rids" `Quick test_snapshot_rids;
          Alcotest.test_case "cert roundtrip" `Quick test_cert_roundtrip;
          Alcotest.test_case "prune_outside" `Quick test_prune_outside;
        ] );
      ( "transfer-restore",
        List.map QCheck_alcotest.to_alcotest
          [
            transfer_prop `Pbft "pbft";
            transfer_prop `Minbft "minbft";
            transfer_prop `A2m_bft "a2m-bft";
            transfer_prop `Cheapbft "cheapbft";
            transfer_prop `Paxos "paxos";
            transfer_prop `Primary_backup "primary-backup";
          ] );
      ( "mutants",
        [
          Alcotest.test_case "watermark overrun flagged" `Quick test_mutant_watermark_overrun;
          Alcotest.test_case "unverified transfer flagged" `Quick test_mutant_unverified_transfer;
        ] );
    ]
