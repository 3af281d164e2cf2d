open Resoc_hybrid
module Hash = Resoc_crypto.Hash
module Mac = Resoc_crypto.Mac
module Keychain = Resoc_crypto.Keychain
module Register = Resoc_hw.Register
module Rng = Resoc_des.Rng

let key = Mac.key_of_int64 4242L

(* --- Usig --- *)

let make_usig ?(protection = Register.Secded) () = Usig.create ~id:3 ~key ~protection

let test_usig_counter_monotonic () =
  let u = make_usig () in
  let d = Hash.of_string "m" in
  let counters =
    List.init 5 (fun _ ->
        match Usig.create_ui u d with
        | Ok ui -> ui.Usig.counter
        | Error e -> Alcotest.failf "create_ui failed: %s" e)
  in
  Alcotest.(check (list int64)) "1..5" [ 1L; 2L; 3L; 4L; 5L ] counters;
  Alcotest.(check int) "issued" 5 (Usig.uis_issued u)

let test_usig_verify_ok () =
  let u = make_usig () in
  let d = Hash.of_string "msg" in
  match Usig.create_ui u d with
  | Ok ui -> Alcotest.(check bool) "verifies" true (Usig.verify_ui ~key ~digest:d ui)
  | Error e -> Alcotest.failf "create_ui failed: %s" e

let test_usig_verify_rejects_wrong_digest () =
  let u = make_usig () in
  match Usig.create_ui u (Hash.of_string "a") with
  | Ok ui ->
    Alcotest.(check bool) "wrong digest" false (Usig.verify_ui ~key ~digest:(Hash.of_string "b") ui)
  | Error e -> Alcotest.failf "create_ui failed: %s" e

let test_usig_verify_rejects_wrong_key () =
  let u = make_usig () in
  let d = Hash.of_string "a" in
  match Usig.create_ui u d with
  | Ok ui ->
    Alcotest.(check bool) "wrong key" false
      (Usig.verify_ui ~key:(Mac.key_of_int64 1L) ~digest:d ui)
  | Error e -> Alcotest.failf "create_ui failed: %s" e

let test_usig_verify_rejects_forged_counter () =
  let u = make_usig () in
  let d = Hash.of_string "a" in
  match Usig.create_ui u d with
  | Ok ui ->
    let forged = { ui with Usig.counter = Int64.add ui.Usig.counter 1L } in
    Alcotest.(check bool) "forged counter" false (Usig.verify_ui ~key ~digest:d forged)
  | Error e -> Alcotest.failf "create_ui failed: %s" e

let test_usig_plain_register_silent_skew () =
  (* An SEU in a plain counter register silently skews subsequent UIs: the
     paper's catastrophic case. *)
  let u = make_usig ~protection:Register.Plain () in
  let d = Hash.of_string "m" in
  (match Usig.create_ui u d with Ok _ -> () | Error e -> Alcotest.failf "%s" e);
  (* counter = 1; flip bit 4 -> counter = 17 *)
  Register.inject_upset_at (Usig.counter_register u) 4;
  match Usig.create_ui u d with
  | Ok ui ->
    Alcotest.(check int64) "skewed counter" 18L ui.Usig.counter;
    (* the MAC still verifies: the corruption is undetectable downstream *)
    Alcotest.(check bool) "silently valid" true (Usig.verify_ui ~key ~digest:d ui)
  | Error e -> Alcotest.failf "unexpected detection: %s" e

let test_usig_secded_register_corrects () =
  let u = make_usig ~protection:Register.Secded () in
  let d = Hash.of_string "m" in
  (match Usig.create_ui u d with Ok _ -> () | Error e -> Alcotest.failf "%s" e);
  Register.inject_upset_at (Usig.counter_register u) 4;
  match Usig.create_ui u d with
  | Ok ui ->
    Alcotest.(check int64) "counter intact" 2L ui.Usig.counter;
    Alcotest.(check int) "correction counted" 1 (Usig.corrections u)
  | Error e -> Alcotest.failf "unexpected detection: %s" e

let test_usig_secded_double_flip_fail_stop () =
  let u = make_usig ~protection:Register.Secded () in
  Register.inject_upset_at (Usig.counter_register u) 4;
  Register.inject_upset_at (Usig.counter_register u) 9;
  (match Usig.create_ui u (Hash.of_string "m") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "double flip must fail-stop");
  Alcotest.(check int) "fault counted" 1 (Usig.faults_detected u)

let test_usig_keychain_integration () =
  let kc = Keychain.create ~master:9L ~n:4 in
  let u = Usig.create ~id:2 ~key:(Keychain.component kc 2) ~protection:Register.Secded in
  let d = Hash.of_string "req" in
  match Usig.create_ui u d with
  | Ok ui ->
    Alcotest.(check bool) "verifier uses component key" true
      (Usig.verify_ui ~key:(Keychain.component kc 2) ~digest:d ui)
  | Error e -> Alcotest.failf "create_ui failed: %s" e

(* --- Usig.Monotonic --- *)

let test_monotonic_accepts_sequence () =
  let c = Usig.Monotonic.create () in
  Alcotest.(check bool) "1" true (Usig.Monotonic.check c ~signer:0 ~counter:1L = Usig.Monotonic.Accept);
  Alcotest.(check bool) "2" true (Usig.Monotonic.check c ~signer:0 ~counter:2L = Usig.Monotonic.Accept);
  Alcotest.(check int64) "tracked" 2L (Usig.Monotonic.last_accepted c ~signer:0)

let test_monotonic_replay () =
  let c = Usig.Monotonic.create () in
  ignore (Usig.Monotonic.check c ~signer:0 ~counter:1L);
  Alcotest.(check bool) "replay" true (Usig.Monotonic.check c ~signer:0 ~counter:1L = Usig.Monotonic.Replay)

let test_monotonic_gap () =
  let c = Usig.Monotonic.create () in
  ignore (Usig.Monotonic.check c ~signer:0 ~counter:1L);
  (match Usig.Monotonic.check c ~signer:0 ~counter:5L with
   | Usig.Monotonic.Gap missing -> Alcotest.(check int64) "gap size" 3L missing
   | _ -> Alcotest.fail "expected gap");
  (* Gap does not advance the tracker. *)
  Alcotest.(check int64) "not advanced" 1L (Usig.Monotonic.last_accepted c ~signer:0)

let test_monotonic_per_signer () =
  let c = Usig.Monotonic.create () in
  ignore (Usig.Monotonic.check c ~signer:0 ~counter:1L);
  Alcotest.(check bool) "other signer independent" true
    (Usig.Monotonic.check c ~signer:1 ~counter:1L = Usig.Monotonic.Accept)

(* --- Trinc --- *)

let test_trinc_advances () =
  let tr = Trinc.create ~id:1 ~key ~protection:Register.Secded in
  let d = Hash.of_string "x" in
  (match Trinc.attest tr ~new_counter:5L ~digest:d with
   | Ok a ->
     Alcotest.(check int64) "previous" 0L a.Trinc.previous;
     Alcotest.(check int64) "current" 5L a.Trinc.current;
     Alcotest.(check bool) "verifies" true (Trinc.verify ~key a)
   | Error e -> Alcotest.failf "attest failed: %s" e);
  match Trinc.attest tr ~new_counter:7L ~digest:d with
  | Ok a -> Alcotest.(check int64) "previous tracks" 5L a.Trinc.previous
  | Error e -> Alcotest.failf "attest failed: %s" e

let test_trinc_rejects_decrease () =
  let tr = Trinc.create ~id:1 ~key ~protection:Register.Secded in
  let d = Hash.of_string "x" in
  (match Trinc.attest tr ~new_counter:5L ~digest:d with Ok _ -> () | Error e -> Alcotest.failf "%s" e);
  match Trinc.attest tr ~new_counter:4L ~digest:d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rollback must be rejected"

let test_trinc_zero_advance_allowed () =
  let tr = Trinc.create ~id:1 ~key ~protection:Register.Secded in
  let d = Hash.of_string "x" in
  (match Trinc.attest tr ~new_counter:5L ~digest:d with Ok _ -> () | Error e -> Alcotest.failf "%s" e);
  match Trinc.attest tr ~new_counter:5L ~digest:d with
  | Ok a ->
    Alcotest.(check int64) "status attestation" 5L a.Trinc.previous;
    Alcotest.(check int64) "no change" 5L a.Trinc.current
  | Error e -> Alcotest.failf "zero advance should work: %s" e

let test_trinc_tamper_detected () =
  let tr = Trinc.create ~id:1 ~key ~protection:Register.Secded in
  match Trinc.attest tr ~new_counter:3L ~digest:(Hash.of_string "x") with
  | Ok a ->
    let tampered = { a with Trinc.current = 9L } in
    Alcotest.(check bool) "tamper fails verify" false (Trinc.verify ~key tampered)
  | Error e -> Alcotest.failf "attest failed: %s" e

(* --- A2m --- *)

let test_a2m_append_and_latest () =
  let q = A2m.create ~id:0 ~key in
  let a1 = A2m.append q (Hash.of_string "e1") in
  let a2 = A2m.append q (Hash.of_string "e2") in
  Alcotest.(check int64) "seq 1" 1L a1.A2m.seq;
  Alcotest.(check int64) "seq 2" 2L a2.A2m.seq;
  Alcotest.(check int) "size" 2 (A2m.size q);
  match A2m.latest q with
  | Some l -> Alcotest.(check int64) "latest is 2" 2L l.A2m.seq
  | None -> Alcotest.fail "expected latest"

let test_a2m_lookup_historical () =
  let q = A2m.create ~id:0 ~key in
  let a1 = A2m.append q (Hash.of_string "e1") in
  ignore (A2m.append q (Hash.of_string "e2"));
  match A2m.lookup q ~seq:1L with
  | Some a ->
    Alcotest.(check bool) "same entry" true (Hash.equal a.A2m.entry a1.A2m.entry);
    Alcotest.(check bool) "same chain" true (Hash.equal a.A2m.chain a1.A2m.chain);
    Alcotest.(check bool) "verifies" true (A2m.verify ~key a)
  | None -> Alcotest.fail "expected entry"

let test_a2m_lookup_out_of_range () =
  let q = A2m.create ~id:0 ~key in
  ignore (A2m.append q (Hash.of_string "e1"));
  Alcotest.(check bool) "zero" true (A2m.lookup q ~seq:0L = None);
  Alcotest.(check bool) "beyond" true (A2m.lookup q ~seq:2L = None)

let test_a2m_verify_rejects_tamper () =
  let q = A2m.create ~id:0 ~key in
  let a = A2m.append q (Hash.of_string "e1") in
  let tampered = { a with A2m.entry = Hash.of_string "e2" } in
  Alcotest.(check bool) "tampered rejected" false (A2m.verify ~key tampered)

let test_a2m_consistency () =
  let q = A2m.create ~id:0 ~key in
  let a1 = A2m.append q (Hash.of_string "e1") in
  let e2 = Hash.of_string "e2" and e3 = Hash.of_string "e3" in
  ignore (A2m.append q e2);
  let a3 = A2m.append q e3 in
  Alcotest.(check bool) "prefix links histories" true
    (A2m.consistent ~earlier:a1 ~later:a3 ~prefix:[ e2; e3 ]);
  Alcotest.(check bool) "wrong prefix rejected" false
    (A2m.consistent ~earlier:a1 ~later:a3 ~prefix:[ e3; e2 ])

let test_a2m_fork_detected () =
  (* Two A2Ms with the same key and id simulate a host trying to maintain a
     forked history: attestations disagree. *)
  let q1 = A2m.create ~id:0 ~key in
  let q2 = A2m.create ~id:0 ~key in
  ignore (A2m.append q1 (Hash.of_string "common"));
  ignore (A2m.append q2 (Hash.of_string "common"));
  let fork1 = A2m.append q1 (Hash.of_string "to-alice") in
  let fork2 = A2m.append q2 (Hash.of_string "to-bob") in
  Alcotest.(check int64) "same seq" fork1.A2m.seq fork2.A2m.seq;
  Alcotest.(check bool) "chains diverge" false (Hash.equal fork1.A2m.chain fork2.A2m.chain)

(* --- Certificate digests pinned to their per-call formulas --- *)

(* The trusted components precompute their constant tags and per-signer
   prefixes; every certificate must still carry the tag the original
   formula gives, for the precomputed signers 0..63 and past them. *)
let signers = List.init 64 Fun.id @ [ 64; 65; 200 ]

let check_tag what signer expected tag =
  if not (Mac.equal expected tag) then Alcotest.failf "%s: signer %d's tag moved" what signer

let test_usig_digest_formula () =
  let d = Hash.of_string "msg" in
  List.iter
    (fun signer ->
      let u = Usig.create ~id:signer ~key ~protection:Register.Secded in
      ignore (Usig.create_ui u d);
      match Usig.create_ui u d with
      | Error e -> Alcotest.failf "create_ui failed: %s" e
      | Ok ui ->
        let formula =
          Hash.combine
            (Hash.combine_int (Hash.combine_int (Hash.of_string "usig-ui") signer) 0)
            (Hash.combine 2L d)
        in
        check_tag "usig" signer (Mac.sign key formula) ui.Usig.tag;
        Alcotest.(check bool) "verify_ui" true (Usig.verify_ui ~key ~digest:d ui))
    signers

let test_trinc_digest_formula () =
  let d = Hash.of_string "msg" in
  List.iter
    (fun signer ->
      let t = Trinc.create ~id:signer ~key ~protection:Register.Secded in
      match Trinc.attest t ~new_counter:7L ~digest:d with
      | Error e -> Alcotest.failf "attest failed: %s" e
      | Ok a ->
        let formula =
          Hash.combine
            (Hash.combine_int (Hash.of_string "trinc") signer)
            (Hash.combine (Hash.combine 0L 7L) d)
        in
        check_tag "trinc" signer (Mac.sign key formula) a.Trinc.tag;
        Alcotest.(check bool) "verify" true (Trinc.verify ~key a))
    signers

let test_a2m_digest_formula () =
  let d1 = Hash.of_string "one" and d2 = Hash.of_string "two" in
  List.iter
    (fun signer ->
      let log = A2m.create ~id:signer ~key in
      ignore (A2m.append log d1);
      let a = A2m.append log d2 in
      let chain = Hash.chain (Hash.chain Hash.zero d1) d2 in
      let formula =
        Hash.combine
          (Hash.combine_int (Hash.of_string "a2m") signer)
          (Hash.combine 2L (Hash.combine d2 chain))
      in
      check_tag "a2m" signer (Mac.sign key formula) a.A2m.tag;
      Alcotest.(check bool) "verify" true (A2m.verify ~key a))
    signers

(* CheapBFT's TrInc certificates attest [H("cheap-stmt") . batch digest]:
   watch the prepares a live group sends over a hub. *)
let test_cheapbft_statement_formula () =
  let open Resoc_repl in
  let engine = Resoc_des.Engine.create () in
  let config = Cheapbft.default_config in
  let n = Cheapbft.n_replicas config + config.Cheapbft.n_clients in
  let hub = Transport.hub engine ~n () in
  let seen = ref 0 in
  let send ~src ~dst msg =
    (match msg with
    | Cheapbft.Prepare_b { requests; cert; _ } ->
      incr seen;
      let formula = Hash.combine (Hash.of_string "cheap-stmt") (Types.batch_digest requests) in
      Alcotest.(check bool) "statement" true (Hash.equal formula cert.Trinc.digest)
    | _ -> ());
    hub.Transport.send ~src ~dst msg
  in
  let sys = Cheapbft.start engine { hub with Transport.send } config () in
  for i = 1 to 3 do
    Cheapbft.submit sys ~client:0 ~payload:(Int64.of_int i)
  done;
  Resoc_des.Engine.run ~until:100_000 engine;
  Alcotest.(check int) "completed" 3 (Cheapbft.stats sys).Stats.completed;
  if !seen = 0 then Alcotest.fail "no prepare seen"

let () =
  Alcotest.run "resoc_hybrid"
    [
      ( "digests",
        [
          Alcotest.test_case "usig ui formula" `Quick test_usig_digest_formula;
          Alcotest.test_case "trinc attestation formula" `Quick test_trinc_digest_formula;
          Alcotest.test_case "a2m attestation formula" `Quick test_a2m_digest_formula;
          Alcotest.test_case "cheapbft statement formula" `Quick test_cheapbft_statement_formula;
        ] );
      ( "usig",
        [
          Alcotest.test_case "counter monotonic" `Quick test_usig_counter_monotonic;
          Alcotest.test_case "verify ok" `Quick test_usig_verify_ok;
          Alcotest.test_case "rejects wrong digest" `Quick test_usig_verify_rejects_wrong_digest;
          Alcotest.test_case "rejects wrong key" `Quick test_usig_verify_rejects_wrong_key;
          Alcotest.test_case "rejects forged counter" `Quick test_usig_verify_rejects_forged_counter;
          Alcotest.test_case "plain register silent skew" `Quick test_usig_plain_register_silent_skew;
          Alcotest.test_case "secded corrects" `Quick test_usig_secded_register_corrects;
          Alcotest.test_case "secded double flip fail-stop" `Quick test_usig_secded_double_flip_fail_stop;
          Alcotest.test_case "keychain integration" `Quick test_usig_keychain_integration;
        ] );
      ( "monotonic",
        [
          Alcotest.test_case "accepts sequence" `Quick test_monotonic_accepts_sequence;
          Alcotest.test_case "replay" `Quick test_monotonic_replay;
          Alcotest.test_case "gap" `Quick test_monotonic_gap;
          Alcotest.test_case "per signer" `Quick test_monotonic_per_signer;
        ] );
      ( "trinc",
        [
          Alcotest.test_case "advances" `Quick test_trinc_advances;
          Alcotest.test_case "rejects decrease" `Quick test_trinc_rejects_decrease;
          Alcotest.test_case "zero advance" `Quick test_trinc_zero_advance_allowed;
          Alcotest.test_case "tamper detected" `Quick test_trinc_tamper_detected;
        ] );
      ( "a2m",
        [
          Alcotest.test_case "append and latest" `Quick test_a2m_append_and_latest;
          Alcotest.test_case "lookup historical" `Quick test_a2m_lookup_historical;
          Alcotest.test_case "lookup out of range" `Quick test_a2m_lookup_out_of_range;
          Alcotest.test_case "verify rejects tamper" `Quick test_a2m_verify_rejects_tamper;
          Alcotest.test_case "consistency" `Quick test_a2m_consistency;
          Alcotest.test_case "fork detected" `Quick test_a2m_fork_detected;
        ] );
    ]
