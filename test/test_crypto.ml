open Resoc_crypto
module Rng = Resoc_des.Rng

let test_hash_deterministic () =
  Alcotest.(check int64) "equal inputs" (Hash.of_string "abc") (Hash.of_string "abc")

let test_hash_distinct () =
  Alcotest.(check bool) "different inputs" false
    (Hash.equal (Hash.of_string "abc") (Hash.of_string "abd"))

let test_hash_empty () =
  (* Defined and stable on the empty string. *)
  Alcotest.(check int64) "empty stable" (Hash.of_string "") (Hash.of_bytes Bytes.empty)

let test_hash_combine_order () =
  let a = Hash.of_string "a" and b = Hash.of_string "b" in
  Alcotest.(check bool) "order sensitive" false (Hash.equal (Hash.combine a b) (Hash.combine b a))

let test_hash_chain_distinct () =
  let d = Hash.of_string "entry" in
  let c1 = Hash.chain Hash.zero d in
  let c2 = Hash.chain c1 d in
  Alcotest.(check bool) "chain advances" false (Hash.equal c1 c2)

let test_hash_hex () =
  Alcotest.(check int) "16 hex chars" 16 (String.length (Hash.to_hex (Hash.of_string "x")))

let prop_hash_injective_sample =
  QCheck.Test.make ~name:"no collisions on small strings" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.return 6)) (string_of_size (QCheck.Gen.return 6)))
    (fun (a, b) -> a = b || not (Hash.equal (Hash.of_string a) (Hash.of_string b)))

let test_mac_roundtrip () =
  let k = Mac.key_of_int64 123L in
  let d = Hash.of_string "message" in
  Alcotest.(check bool) "verify own tag" true (Mac.verify k d (Mac.sign k d))

let test_mac_wrong_key () =
  let k1 = Mac.key_of_int64 1L and k2 = Mac.key_of_int64 2L in
  let d = Hash.of_string "message" in
  Alcotest.(check bool) "other key fails" false (Mac.verify k2 d (Mac.sign k1 d))

let test_mac_wrong_digest () =
  let k = Mac.key_of_int64 1L in
  let tag = Mac.sign k (Hash.of_string "a") in
  Alcotest.(check bool) "other digest fails" false (Mac.verify k (Hash.of_string "b") tag)

let test_mac_corrupt_detected () =
  let k = Mac.key_of_int64 9L in
  let d = Hash.of_string "payload" in
  let tag = Mac.corrupt (Mac.sign k d) in
  Alcotest.(check bool) "corrupted tag rejected" false (Mac.verify k d tag)

let test_mac_fresh_keys_differ () =
  let rng = Rng.create 11L in
  let k1 = Mac.fresh_key rng and k2 = Mac.fresh_key rng in
  let d = Hash.of_string "m" in
  Alcotest.(check bool) "fresh keys differ" false (Mac.equal (Mac.sign k1 d) (Mac.sign k2 d))

let test_keychain_pairwise_symmetric () =
  let kc = Keychain.create ~master:77L ~n:5 in
  let d = Hash.of_string "m" in
  Alcotest.(check bool) "symmetric" true
    (Mac.equal (Mac.sign (Keychain.pairwise kc 1 3) d) (Mac.sign (Keychain.pairwise kc 3 1) d))

let test_keychain_pairwise_distinct () =
  let kc = Keychain.create ~master:77L ~n:5 in
  let d = Hash.of_string "m" in
  Alcotest.(check bool) "distinct pairs" false
    (Mac.equal (Mac.sign (Keychain.pairwise kc 0 1) d) (Mac.sign (Keychain.pairwise kc 0 2) d))

let test_keychain_component_distinct_from_pairwise () =
  let kc = Keychain.create ~master:77L ~n:5 in
  let d = Hash.of_string "m" in
  Alcotest.(check bool) "component vs pairwise" false
    (Mac.equal (Mac.sign (Keychain.component kc 1) d) (Mac.sign (Keychain.pairwise kc 1 1) d))

let test_keychain_deterministic () =
  let a = Keychain.create ~master:5L ~n:4 and b = Keychain.create ~master:5L ~n:4 in
  let d = Hash.of_string "m" in
  Alcotest.(check bool) "same master same keys" true
    (Mac.equal (Mac.sign (Keychain.pairwise a 0 2) d) (Mac.sign (Keychain.pairwise b 0 2) d))

let test_keychain_bounds () =
  let kc = Keychain.create ~master:5L ~n:3 in
  Alcotest.check_raises "out of range" (Invalid_argument "Keychain: principal out of range")
    (fun () -> ignore (Keychain.pairwise kc 0 3))

(* Component keys are precomputed at [create]; they must stay the keys
   the per-call formula derived. *)
let test_keychain_component_formula () =
  let master = 0x17E4C0L and n = 70 in
  let kc = Keychain.create ~master ~n in
  let d = Hash.of_string "m" in
  for i = 0 to n - 1 do
    let formula = Mac.key_of_int64 (Hash.combine_int (Hash.combine master 0x55534947L) i) in
    if not (Mac.equal (Mac.sign (Keychain.component kc i) d) (Mac.sign formula d)) then
      Alcotest.failf "component key %d moved" i
  done;
  Alcotest.check_raises "out of range" (Invalid_argument "Keychain: principal out of range")
    (fun () -> ignore (Keychain.component kc n))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_crypto"
    [
      ( "hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "distinct" `Quick test_hash_distinct;
          Alcotest.test_case "empty" `Quick test_hash_empty;
          Alcotest.test_case "combine order" `Quick test_hash_combine_order;
          Alcotest.test_case "chain distinct" `Quick test_hash_chain_distinct;
          Alcotest.test_case "hex" `Quick test_hash_hex;
        ] );
      qsuite "hash-prop" [ prop_hash_injective_sample ];
      ( "mac",
        [
          Alcotest.test_case "roundtrip" `Quick test_mac_roundtrip;
          Alcotest.test_case "wrong key" `Quick test_mac_wrong_key;
          Alcotest.test_case "wrong digest" `Quick test_mac_wrong_digest;
          Alcotest.test_case "corrupt detected" `Quick test_mac_corrupt_detected;
          Alcotest.test_case "fresh keys differ" `Quick test_mac_fresh_keys_differ;
        ] );
      ( "keychain",
        [
          Alcotest.test_case "pairwise symmetric" `Quick test_keychain_pairwise_symmetric;
          Alcotest.test_case "pairwise distinct" `Quick test_keychain_pairwise_distinct;
          Alcotest.test_case "component distinct" `Quick test_keychain_component_distinct_from_pairwise;
          Alcotest.test_case "deterministic" `Quick test_keychain_deterministic;
          Alcotest.test_case "bounds" `Quick test_keychain_bounds;
          Alcotest.test_case "component formula" `Quick test_keychain_component_formula;
        ] );
    ]
