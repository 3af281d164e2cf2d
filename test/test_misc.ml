(* Cross-cutting coverage: pretty-printers, client mechanics, trace capture
   in the integrated system, and protocol switching over the NoC. *)

module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Hash = Resoc_crypto.Hash
module Keychain = Resoc_crypto.Keychain
module Mac = Resoc_crypto.Mac
module Behavior = Resoc_fault.Behavior
module Trinc = Resoc_hybrid.Trinc
module Register = Resoc_hw.Register
open Resoc_repl
module Soc = Resoc_core.Soc
module Group = Resoc_core.Group
module Protocol_switch = Resoc_core.Protocol_switch
module Resilient_system = Resoc_core.Resilient_system
module Diversity = Resoc_resilience.Diversity
module Rejuvenation = Resoc_resilience.Rejuvenation
module Obs = Resoc_obs.Obs
module Ring = Resoc_obs.Ring

let fmt_to_string pp v = Format.asprintf "%a" pp v

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec scan i = i + m <= n && (String.sub s i m = affix || scan (i + 1)) in
  m = 0 || scan 0

(* --- pretty-printers --- *)

let test_pp_request_reply () =
  let r = Types.make_request ~client:4 ~rid:7 ~payload:9L in
  Alcotest.(check string) "request" "req(c4#7:9)" (fmt_to_string Types.pp_request r);
  let reply = { Types.client = 4; rid = 7; result = 9L; replica = 2 } in
  Alcotest.(check string) "reply" "reply(c4#7=9 from r2)" (fmt_to_string Types.pp_reply reply)

let test_pp_behavior () =
  Alcotest.(check string) "honest" "honest" (fmt_to_string Behavior.pp Behavior.honest);
  Alcotest.(check string) "crash" "crash@5" (fmt_to_string Behavior.pp (Behavior.crash_at 5));
  Alcotest.(check string) "byz" "byzantine(delay(3))@9"
    (fmt_to_string Behavior.pp (Behavior.byzantine ~from_cycle:9 (Behavior.Delay 3)))

let test_pp_hash () =
  Alcotest.(check int) "hex width" 16 (String.length (fmt_to_string Hash.pp (Hash.of_string "x")))

let test_pp_stats () =
  let s = Stats.create () in
  s.Stats.submitted <- 3;
  s.Stats.completed <- 2;
  let text = fmt_to_string Stats.pp s in
  Alcotest.(check bool) "mentions submitted" true (contains ~affix:"submitted=3" text)

(* --- client mechanics --- *)

let test_client_queueing_and_shutdown () =
  let engine = Engine.create () in
  let fabric = Transport.hub engine ~n:2 () in
  let stats = Stats.create () in
  (* Replica 0 echoes every request back as a reply. *)
  fabric.Transport.set_handler 0 (fun ~src msg ->
      match msg with
      | `Request (r : Types.request) ->
        fabric.Transport.send ~src:0 ~dst:src
          (`Reply { Types.client = r.Types.client; rid = r.Types.rid; result = r.Types.payload; replica = 0 })
      | `Reply _ -> ());
  let client =
    Client.create engine fabric ~id:1 ~n_replicas:1 ~quorum:1 ~retry_timeout:1_000 ~stats
      ~to_msg:(fun r -> `Request r)
      ~of_msg:(function `Reply r -> Some r | `Request _ -> None)
      ()
  in
  Client.submit client ~payload:1L;
  Client.submit client ~payload:2L;
  Client.submit client ~payload:3L;
  Alcotest.(check bool) "outstanding" true (Client.outstanding client);
  Alcotest.(check int) "two queued" 2 (Client.queued client);
  Engine.run engine;
  Alcotest.(check int) "all served in order" 3 stats.Stats.completed;
  Client.shutdown client;
  Client.submit client ~payload:4L;
  Engine.run engine;
  Alcotest.(check int) "shutdown blocks new work" 3 stats.Stats.completed

let test_client_retransmits_until_served () =
  let engine = Engine.create () in
  let fabric = Transport.hub engine ~n:2 () in
  let stats = Stats.create () in
  let seen = ref 0 in
  (* The replica ignores the first two copies. *)
  fabric.Transport.set_handler 0 (fun ~src msg ->
      match msg with
      | `Request (r : Types.request) ->
        incr seen;
        if !seen >= 3 then
          fabric.Transport.send ~src:0 ~dst:src
            (`Reply { Types.client = r.Types.client; rid = r.Types.rid; result = 0L; replica = 0 })
      | `Reply _ -> ());
  let client =
    Client.create engine fabric ~id:1 ~n_replicas:1 ~quorum:1 ~retry_timeout:500 ~stats
      ~to_msg:(fun r -> `Request r)
      ~of_msg:(function `Reply r -> Some r | `Request _ -> None)
      ()
  in
  Client.submit client ~payload:1L;
  Engine.run ~until:10_000 engine;
  Alcotest.(check int) "completed after retries" 1 stats.Stats.completed;
  Alcotest.(check int) "two retransmissions" 2 stats.Stats.retransmissions

(* A stub fabric: the client's handler is captured so replies can be fed
   synchronously from any replica id, and requests are only counted. *)
let stub_client ~n_replicas ~quorum =
  let engine = Engine.create () in
  let handler = ref (fun ~src:_ _ -> ()) and sent = ref 0 in
  let fabric =
    {
      Transport.n_endpoints = n_replicas + 1;
      send = (fun ~src:_ ~dst:_ _ -> incr sent);
      multicast = None;
      set_handler = (fun _ h -> handler := h);
      detach = (fun _ -> ());
      messages_sent = (fun () -> !sent);
      bytes_sent = (fun () -> 0);
    }
  in
  let stats = Stats.create () in
  let client =
    Client.create engine fabric ~id:n_replicas ~n_replicas ~quorum ~retry_timeout:1_000 ~stats
      ~to_msg:(fun r -> `Request r)
      ~of_msg:(function `Reply r -> Some r | `Request _ -> None)
      ()
  in
  let reply ~rid ~replica result =
    !handler ~src:replica (`Reply { Types.client = n_replicas; rid; result; replica })
  in
  (client, stats, reply)

let test_client_tally () =
  let client, stats, reply = stub_client ~n_replicas:4 ~quorum:2 in
  (* Completion at the quorum: one matching reply is not enough. *)
  Client.submit client ~payload:1L;
  reply ~rid:1 ~replica:0 7L;
  Alcotest.(check int) "one reply short of the quorum" 0 stats.Stats.completed;
  reply ~rid:1 ~replica:1 7L;
  Alcotest.(check int) "complete at the quorum" 1 stats.Stats.completed;
  Alcotest.(check int) "no dissent" 0 stats.Stats.wrong_replies;
  (* One dissenting replica is counted once at completion. *)
  Client.submit client ~payload:2L;
  reply ~rid:2 ~replica:3 9L;
  reply ~rid:2 ~replica:0 8L;
  reply ~rid:2 ~replica:2 8L;
  Alcotest.(check int) "second request complete" 2 stats.Stats.completed;
  Alcotest.(check int) "one dissenting reply" 1 stats.Stats.wrong_replies;
  (* A repeated reply overwrites the replica's result instead of voting
     twice: replica 1's 5 is replaced, and its two 6s count once. *)
  Client.submit client ~payload:3L;
  reply ~rid:3 ~replica:1 5L;
  reply ~rid:3 ~replica:1 6L;
  reply ~rid:3 ~replica:1 6L;
  Alcotest.(check int) "one replica is not a quorum" 2 stats.Stats.completed;
  reply ~rid:3 ~replica:2 6L;
  Alcotest.(check int) "third request complete" 3 stats.Stats.completed;
  Alcotest.(check int) "the overwritten result is no dissent" 1 stats.Stats.wrong_replies;
  (* Replies to an earlier request are ignored. *)
  Client.submit client ~payload:4L;
  reply ~rid:3 ~replica:0 6L;
  reply ~rid:3 ~replica:3 6L;
  Alcotest.(check int) "stale replies ignored" 3 stats.Stats.completed

(* The digest [make_request] caches is the formula replicas always used. *)
let test_request_digest_pinned () =
  let tag = Hash.of_string "request" in
  List.iter
    (fun client ->
      List.iter
        (fun rid ->
          List.iter
            (fun payload ->
              let r = Types.make_request ~client ~rid ~payload in
              let expected = Hash.combine_int (Hash.combine tag payload) ((client * 1_000_003) + rid) in
              let name = Printf.sprintf "c%d#%d:%Ld" client rid payload in
              Alcotest.(check int64) name expected r.Types.digest;
              Alcotest.(check int64) name expected (Types.request_digest r))
            [ 0L; 1L; -1L; 0x0123_4567_89ab_cdefL; Int64.max_int; Int64.min_int ])
        [ -1; 0; 1; 7; 1_000_000; 1 lsl 40; max_int ])
    [ -1; 0; 3; 62; 1_000 ]

(* --- trinc fail-stop accounting --- *)

let test_trinc_register_fault_detected () =
  let tr = Trinc.create ~id:0 ~key:(Mac.key_of_int64 1L) ~protection:Register.Secded in
  Register.inject_upset_at (Trinc.counter_register tr) 3;
  Register.inject_upset_at (Trinc.counter_register tr) 9;
  (match Trinc.attest tr ~new_counter:1L ~digest:(Hash.of_string "x") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "double flip must be detected");
  Alcotest.(check int) "counted" 1 (Trinc.faults_detected tr)

(* --- resilient system trace --- *)

(* Runs [config] with tracing on (for this run only) and returns the
   (code, replica, arg) of its resilience records, oldest first. *)
let resilience_records config ~horizon =
  Obs.enable_tracing ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let sys = Resilient_system.create config in
      ignore (Resilient_system.run sys ~horizon ~workload_period:5_000);
      let records = ref [] in
      Ring.iter (Engine.obs (Soc.engine (Resilient_system.soc sys))).Obs.ring
        (fun ~time:_ ~cat ~phase:_ ~id ~arg ->
          if cat = Obs.Cat.resilience then records := (id land 7, id lsr 3, arg) :: !records);
      List.rev !records)

let test_resilient_system_trace_captures_events () =
  let config =
    {
      Resilient_system.default_config with
      group = { Group.default_spec with n_clients = 1 };
      apt =
        Some
          {
            Resilient_system.mean_exploit_cycles = 20_000.0;
            exposure = 2_000;
            backdoor_delay = 1_000_000;
            detection_prob = 0.0;
            detection_delay = 1_000;
          };
      rejuvenation = Some { Rejuvenation.period = 30_000; downtime = 500 };
      diversity = Diversity.Max_diversity;
    }
  in
  let records = resilience_records config ~horizon:200_000 in
  let has code = List.exists (fun (c, _, _) -> c = code) records in
  Alcotest.(check bool) "rejuvenation events" true (has Obs.code_down && has Obs.code_restart);
  Alcotest.(check bool) "apt events" true (has Obs.code_compromise)

(* Every frame of a 4x4 grid is trojaned, so each relocation that avoids
   trojaned frames fails, and each failure is recorded in place of a move. *)
let test_resilient_system_relocation_failure_recorded () =
  let config =
    {
      Resilient_system.default_config with
      soc = { Soc.default_config with grid_width = 4; grid_height = 4 };
      group = { Group.default_spec with n_clients = 1 };
      apt = None;
      relocate_on_rejuvenation = true;
      trojaned_frames = List.init 16 (fun i -> (i mod 4, i / 4));
      rejuvenation = Some { Rejuvenation.period = 30_000; downtime = 500 };
    }
  in
  let records = resilience_records config ~horizon:200_000 in
  let count code = List.length (List.filter (fun (c, _, _) -> c = code) records) in
  Alcotest.(check bool) "restarts happened" true (count Obs.code_restart > 0);
  Alcotest.(check int) "one failure per restart" (count Obs.code_restart)
    (count Obs.code_relocate_failed);
  Alcotest.(check int) "no relocation" 0 (count Obs.code_relocate)

(* --- protocol switch over the NoC --- *)

let test_protocol_switch_on_soc () =
  let soc = Soc.create { Soc.default_config with mesh_width = 4; mesh_height = 4 } in
  let engine = Soc.engine soc in
  let spec = { Group.default_spec with kind = `Minbft; n_clients = 1 } in
  let sw = Protocol_switch.create engine (Group.On_soc soc) spec in
  for i = 1 to 3 do
    Protocol_switch.submit sw ~client:0 ~payload:(Int64.of_int i)
  done;
  Engine.run ~until:60_000 engine;
  Protocol_switch.switch sw { spec with Group.kind = `Pbft } ~downtime:2_000;
  Engine.run ~until:80_000 engine;
  for i = 4 to 6 do
    Protocol_switch.submit sw ~client:0 ~payload:(Int64.of_int i)
  done;
  Engine.run ~until:400_000 engine;
  Alcotest.(check int) "epochs over the mesh" 1 (Protocol_switch.epoch sw);
  Alcotest.(check int) "all served across the switch" 6 (Protocol_switch.total_completed sw);
  Alcotest.(check int64) "state carried over the mesh" 21L
    ((Protocol_switch.group sw).Group.replica_state ~replica:0)

(* --- engine odds and ends --- *)

let test_engine_pending_counts () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5 (fun () -> ()));
  ignore (Engine.schedule e ~delay:6 (fun () -> ()));
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  Alcotest.(check bool) "step consumes" true (Engine.step e);
  Alcotest.(check int) "one left" 1 (Engine.pending e)

let () =
  Alcotest.run "resoc_misc"
    [
      ( "pretty-printing",
        [
          Alcotest.test_case "request/reply" `Quick test_pp_request_reply;
          Alcotest.test_case "behavior" `Quick test_pp_behavior;
          Alcotest.test_case "hash" `Quick test_pp_hash;
          Alcotest.test_case "stats" `Quick test_pp_stats;
        ] );
      ( "client",
        [
          Alcotest.test_case "queueing and shutdown" `Quick test_client_queueing_and_shutdown;
          Alcotest.test_case "retransmits until served" `Quick test_client_retransmits_until_served;
          Alcotest.test_case "quorum, dissent and repeats" `Quick test_client_tally;
          Alcotest.test_case "request digest pinned" `Quick test_request_digest_pinned;
        ] );
      ( "hybrids",
        [ Alcotest.test_case "trinc register fault" `Quick test_trinc_register_fault_detected ] );
      ( "integration",
        [
          Alcotest.test_case "resilient system trace" `Quick test_resilient_system_trace_captures_events;
          Alcotest.test_case "relocation failure recorded" `Quick
            test_resilient_system_relocation_failure_recorded;
          Alcotest.test_case "protocol switch on soc" `Quick test_protocol_switch_on_soc;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pending counts" `Quick test_engine_pending_counts;
        ] );
    ]
