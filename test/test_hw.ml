open Resoc_hw
module Rng = Resoc_des.Rng

(* --- Ecc --- *)

let test_ecc_roundtrip_basic () =
  List.iter
    (fun v ->
      let data, status = Ecc.decode (Ecc.encode v) in
      Alcotest.(check int64) "data" v data;
      Alcotest.(check bool) "clean" true (status = Ecc.Clean))
    [ 0L; 1L; Int64.max_int; Int64.min_int; -1L; 0xDEADBEEFCAFEBABEL ]

let test_ecc_single_flip_all_positions () =
  let v = 0x0123456789ABCDEFL in
  for bit = 0 to Ecc.width - 1 do
    let w = Ecc.flip (Ecc.encode v) bit in
    let data, status = Ecc.decode w in
    Alcotest.(check int64) (Printf.sprintf "bit %d corrected" bit) v data;
    Alcotest.(check bool) (Printf.sprintf "bit %d status" bit) true (status = Ecc.Corrected)
  done

let test_ecc_double_flip_detected () =
  let v = 0xFEEDFACE12345678L in
  (* All pairs is 72*71/2 = 2556 cases; affordable. *)
  for i = 0 to Ecc.width - 1 do
    for j = i + 1 to Ecc.width - 1 do
      let w = Ecc.flip (Ecc.flip (Ecc.encode v) i) j in
      let _, status = Ecc.decode w in
      if status <> Ecc.Uncorrectable then
        Alcotest.failf "double flip (%d,%d) not detected" i j
    done
  done

let test_ecc_flip_bounds () =
  Alcotest.check_raises "flip oob" (Invalid_argument "Ecc.flip: bit out of range") (fun () ->
      ignore (Ecc.flip (Ecc.encode 0L) 72))

let test_ecc_flip_involutive () =
  let w = Ecc.encode 42L in
  Alcotest.(check bool) "double flip restores" true (Ecc.equal w (Ecc.flip (Ecc.flip w 17) 17))

let prop_ecc_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 QCheck.int64 (fun v ->
      let data, status = Ecc.decode (Ecc.encode v) in
      Int64.equal data v && status = Ecc.Clean)

let prop_ecc_corrects_any_single_flip =
  QCheck.Test.make ~name:"single flip corrected" ~count:500
    QCheck.(pair int64 (int_bound (Ecc.width - 1)))
    (fun (v, bit) ->
      let data, status = Ecc.decode (Ecc.flip (Ecc.encode v) bit) in
      Int64.equal data v && status = Ecc.Corrected)

(* --- Register --- *)

let test_register_write_read () =
  List.iter
    (fun p ->
      let r = Register.create p 99L in
      Register.write r 1234L;
      let v, status = Register.read r in
      Alcotest.(check int64) "value" 1234L v;
      Alcotest.(check bool) "ok" true (status = Register.Ok))
    [ Register.Plain; Register.Parity; Register.Secded ]

let test_register_plain_silent () =
  let r = Register.create Register.Plain 0L in
  Register.inject_upset_at r 5;
  let v, status = Register.read r in
  Alcotest.(check int64) "silently wrong" 32L v;
  Alcotest.(check bool) "no detection" true (status = Register.Ok);
  Alcotest.(check bool) "oracle sees corruption" true (Register.silently_corrupt r)

let test_register_parity_detects_single () =
  let r = Register.create Register.Parity 0L in
  Register.inject_upset_at r 3;
  let _, status = Register.read r in
  Alcotest.(check bool) "detected" true (status = Register.Fault_detected);
  Alcotest.(check bool) "not silent" false (Register.silently_corrupt r)

let test_register_parity_misses_double () =
  let r = Register.create Register.Parity 0L in
  Register.inject_upset_at r 3;
  Register.inject_upset_at r 7;
  let _, status = Register.read r in
  Alcotest.(check bool) "double flip evades parity" true (status = Register.Ok);
  Alcotest.(check bool) "silent corruption" true (Register.silently_corrupt r)

let test_register_secded_corrects () =
  let r = Register.create Register.Secded 77L in
  Register.inject_upset_at r 13;
  let v, status = Register.read r in
  Alcotest.(check int64) "corrected value" 77L v;
  Alcotest.(check bool) "corrected status" true (status = Register.Corrected);
  (* scrubbed: a second read is clean *)
  let _, status2 = Register.read r in
  Alcotest.(check bool) "scrubbed" true (status2 = Register.Ok)

let test_register_secded_detects_double () =
  let r = Register.create Register.Secded 77L in
  Register.inject_upset_at r 13;
  Register.inject_upset_at r 40;
  let _, status = Register.read r in
  Alcotest.(check bool) "double detected" true (status = Register.Fault_detected)

let test_register_stored_bits () =
  Alcotest.(check int) "plain" 64 (Register.stored_bits (Register.create Register.Plain 0L));
  Alcotest.(check int) "parity" 65 (Register.stored_bits (Register.create Register.Parity 0L));
  Alcotest.(check int) "secded" 72 (Register.stored_bits (Register.create Register.Secded 0L))

let test_register_gate_cost_monotone () =
  Alcotest.(check bool) "plain < parity < secded" true
    (Register.gate_cost Register.Plain < Register.gate_cost Register.Parity
     && Register.gate_cost Register.Parity < Register.gate_cost Register.Secded)

let test_register_upset_counter () =
  let r = Register.create Register.Secded 0L in
  let rng = Rng.create 4L in
  Register.inject_upset r rng;
  Register.inject_upset r rng;
  Alcotest.(check int) "counted" 2 (Register.upsets_injected r)

(* --- Circuit --- *)

let test_majority3_truth_table () =
  for a = 0 to 1 do
    for b = 0 to 1 do
      for c = 0 to 1 do
        let inputs = [| a = 1; b = 1; c = 1 |] in
        let expected = a + b + c >= 2 in
        let out = Circuit.eval Circuit.majority3 inputs in
        Alcotest.(check bool) (Printf.sprintf "maj(%d,%d,%d)" a b c) expected out.(0)
      done
    done
  done

let test_majority5_exhaustive () =
  let m5 = Circuit.majority 5 in
  for pattern = 0 to 31 do
    let inputs = Array.init 5 (fun i -> (pattern lsr i) land 1 = 1) in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs in
    let out = Circuit.eval m5 inputs in
    Alcotest.(check bool) (Printf.sprintf "maj5 pattern %d" pattern) (ones >= 3) out.(0)
  done

let test_majority7_exhaustive () =
  let m7 = Circuit.majority 7 in
  for pattern = 0 to 127 do
    let inputs = Array.init 7 (fun i -> (pattern lsr i) land 1 = 1) in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs in
    let out = Circuit.eval m7 inputs in
    Alcotest.(check bool) (Printf.sprintf "maj7 pattern %d" pattern) (ones >= 4) out.(0)
  done

let test_majority_rejects_even () =
  Alcotest.check_raises "even n" (Invalid_argument "Circuit.majority: n must be odd and positive")
    (fun () -> ignore (Circuit.majority 4))

let test_xor_tree () =
  let x4 = Circuit.xor_tree 4 in
  for pattern = 0 to 15 do
    let inputs = Array.init 4 (fun i -> (pattern lsr i) land 1 = 1) in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs in
    let out = Circuit.eval x4 inputs in
    Alcotest.(check bool) (Printf.sprintf "xor pattern %d" pattern) (ones mod 2 = 1) out.(0)
  done

let test_circuit_validation () =
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Circuit.build: operand must reference an earlier gate") (fun () ->
      ignore (Circuit.build ~n_inputs:1 [| Circuit.Not 1; Circuit.Input 0 |] ~outputs:[| 0 |]))

let test_circuit_no_faults_at_p0 () =
  let rng = Rng.create 5L in
  let c = Circuit.random_logic rng ~n_inputs:4 ~n_gates:50 in
  let inputs = [| true; false; true; true |] in
  Alcotest.(check (array bool)) "p=0 equals golden" (Circuit.eval c inputs)
    (Circuit.eval_faulty c rng ~p_gate:0.0 inputs)

let test_circuit_gate_count () =
  Alcotest.(check int) "majority3 gates" 5 (Circuit.gate_count Circuit.majority3)

let test_replicate_with_voter_masks () =
  (* A TMR'd buffer where we check correct fault-free behaviour. *)
  let buf = Circuit.build ~n_inputs:1 [| Circuit.Input 0; Circuit.Buf 0 |] ~outputs:[| 1 |] in
  let tmr = Circuit.replicate_with_voter buf 3 in
  Alcotest.(check int) "single output" 1 (Circuit.n_outputs tmr);
  List.iter
    (fun b ->
      let out = Circuit.eval tmr [| b |] in
      Alcotest.(check bool) "identity preserved" b out.(0))
    [ true; false ]

let test_tmr_improves_reliability () =
  (* The module must be large enough that its failure probability dominates
     the voter's own: for tiny modules TMR is voter-limited and loses (a
     real effect, exercised in E1). *)
  let rng = Rng.create 42L in
  let c = Circuit.random_logic rng ~n_inputs:4 ~n_gates:400 in
  let tmr = Circuit.replicate_with_voter c 3 in
  let p_gate = 0.002 in
  let simplex = Redundancy.mc_circuit_correct rng c ~trials:3000 ~p_gate in
  let redundant = Redundancy.mc_circuit_correct rng tmr ~trials:3000 ~p_gate in
  Alcotest.(check bool)
    (Printf.sprintf "tmr (%f) > simplex (%f)" redundant simplex)
    true (redundant > simplex)

let test_tmr_voter_limited_regime () =
  (* Converse of the above: TMR around a trivial module is dominated by the
     voter and does not help. *)
  let rng = Rng.create 43L in
  let buf = Circuit.build ~n_inputs:1 [| Circuit.Input 0; Circuit.Buf 0 |] ~outputs:[| 1 |] in
  let tmr = Circuit.replicate_with_voter buf 3 in
  let p_gate = 0.01 in
  let simplex = Redundancy.mc_circuit_correct rng buf ~trials:5000 ~p_gate in
  let redundant = Redundancy.mc_circuit_correct rng tmr ~trials:5000 ~p_gate in
  Alcotest.(check bool)
    (Printf.sprintf "voter-limited: tmr (%f) <= simplex (%f)" redundant simplex)
    true (redundant <= simplex)

(* --- Redundancy --- *)

let test_binomial () =
  Alcotest.(check (float 1e-9)) "C(5,2)" 10.0 (Redundancy.binomial 5 2);
  Alcotest.(check (float 1e-9)) "C(7,0)" 1.0 (Redundancy.binomial 7 0);
  Alcotest.(check (float 1e-9)) "C(4,5)" 0.0 (Redundancy.binomial 4 5)

let test_tmr_formula () =
  List.iter
    (fun r ->
      let expected = (3.0 *. r *. r) -. (2.0 *. r *. r *. r) in
      Alcotest.(check (float 1e-12)) (Printf.sprintf "r=%f" r) expected (Redundancy.r_tmr r))
    [ 0.0; 0.3; 0.5; 0.9; 0.99; 1.0 ]

let test_tmr_crossover_at_half () =
  (* TMR helps above r=0.5, hurts below: the textbook crossover. *)
  Alcotest.(check bool) "above" true (Redundancy.r_tmr 0.9 > 0.9);
  Alcotest.(check bool) "below" true (Redundancy.r_tmr 0.3 < 0.3);
  Alcotest.(check (float 1e-12)) "at half" 0.5 (Redundancy.r_tmr 0.5)

let test_nmr_monotone_in_n () =
  let r = 0.95 in
  Alcotest.(check bool) "5mr beats tmr at high r" true (Redundancy.r_nmr ~n:5 r > Redundancy.r_nmr ~n:3 r)

let test_nmr_voter_penalty () =
  Alcotest.(check bool) "voter degrades" true
    (Redundancy.r_nmr_with_voter ~n:3 ~voter:0.99 0.95 < Redundancy.r_nmr ~n:3 0.95)

let test_mc_matches_analytic () =
  let rng = Rng.create 17L in
  let p_fail = 0.1 in
  let mc = Redundancy.mc_module_nmr rng ~n:3 ~trials:50000 ~p_fail in
  let analytic = 1.0 -. Redundancy.r_tmr (1.0 -. p_fail) in
  Alcotest.(check bool)
    (Printf.sprintf "mc=%f analytic=%f" mc analytic)
    true
    (Float.abs (mc -. analytic) < 0.005)

(* --- Complexity --- *)

let test_complexity_circuit_grows () =
  let p = Complexity.default in
  Alcotest.(check bool) "circuit failure grows" true
    (Complexity.p_fail_circuit p ~complexity:1 < Complexity.p_fail_circuit p ~complexity:50)

let test_complexity_small_favors_circuit () =
  let p = Complexity.default in
  Alcotest.(check bool) "USIG-scale favours circuit" true
    (Complexity.p_fail_circuit p ~complexity:1 < Complexity.p_fail_software_hybrid p ~complexity:1)

let test_complexity_crossover_exists () =
  let p = Complexity.default in
  match Complexity.crossover p ~max_complexity:10000 with
  | None -> Alcotest.fail "expected a crossover"
  | Some c ->
    Alcotest.(check bool) "crossover beyond trivial" true (c > 1);
    (* After the crossover, software hybrid is at least as reliable. *)
    Alcotest.(check bool) "sw wins after crossover" true
      (Complexity.p_fail_software_hybrid p ~complexity:(c + 10)
       <= Complexity.p_fail_circuit p ~complexity:(c + 10))

let test_complexity_sweep_shape () =
  let p = Complexity.default in
  let rows = Complexity.sweep p ~max_complexity:100 ~step:10 in
  Alcotest.(check int) "rows" 11 (List.length rows);
  List.iter
    (fun (_, pc, ps) ->
      Alcotest.(check bool) "probabilities" true (pc >= 0.0 && pc <= 1.0 && ps >= 0.0 && ps <= 1.0))
    rows

(* --- Oracles: the word-parallel kernels against the bit loops they
   replaced (Hw_reference) --- *)

module Ref_ecc = Hw_reference.Secded
module Ref_circuit = Hw_reference.Netlist

let hex w = Format.asprintf "%a" Ecc.pp w

let status_name = function
  | Ecc.Clean -> "clean"
  | Ecc.Corrected -> "corrected"
  | Ecc.Uncorrectable -> "uncorrectable"

(* Encode [data], flip [flips] in order, and compare every observable of
   the result with the reference codec. Returns a mismatch description. *)
let ecc_mismatch data flips =
  let fast = List.fold_left Ecc.flip (Ecc.encode data) flips in
  let slow = List.fold_left Ref_ecc.flip (Ref_ecc.encode data) flips in
  let fd, fs = Ecc.decode fast and sd, ss = Ref_ecc.decode slow in
  if hex fast <> Ref_ecc.to_string slow then
    Some (Printf.sprintf "pp %s vs %s" (hex fast) (Ref_ecc.to_string slow))
  else if not (Int64.equal fd sd && fs = ss) then
    Some
      (Printf.sprintf "decode %Lx/%s vs %Lx/%s" fd (status_name fs) sd (status_name ss))
  else if Ecc.bits_set fast <> Ref_ecc.bits_set slow then Some "bits_set"
  else if
    Ecc.equal fast (Ecc.encode data) <> Ref_ecc.equal slow (Ref_ecc.encode data)
  then Some "equal"
  else None

let prop_ecc_matches_reference =
  (* 0-4 flips: three or more include syndromes of 72 and up, which name no
     stored position. *)
  let gen = QCheck.(pair int64 (list_of_size Gen.(0 -- 4) (int_bound (Ecc.width - 1)))) in
  QCheck.Test.make ~name:"secded matches the bit-loop reference" ~count:2000 gen
    (fun (data, flips) ->
      match ecc_mismatch data flips with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

let test_ecc_triple_flips_match_reference () =
  let data = 0x0123456789ABCDEFL in
  let high_syndromes = ref 0 in
  for i = 0 to Ecc.width - 1 do
    for j = i + 1 to Ecc.width - 1 do
      for k = j + 1 to Ecc.width - 1 do
        (* Position 0, the overall parity bit, is outside the syndrome. *)
        if i lxor j lxor k >= 72 then incr high_syndromes;
        match ecc_mismatch data [ i; j; k ] with
        | None -> ()
        | Some m -> Alcotest.failf "flips %d,%d,%d: %s" i j k m
      done
    done
  done;
  Alcotest.(check bool) "syndromes >= 72 covered" true (!high_syndromes > 0)

let test_ecc_high_syndrome_reads_corrected () =
  (* Positions 8, 16 and 64 xor to syndrome 88 with odd parity: the decoder
     reports [Corrected] and returns the data bits as stored. *)
  let data = 0xFEEDFACE12345678L in
  let w = List.fold_left Ecc.flip (Ecc.encode data) [ 8; 16; 64 ] in
  let d, status = Ecc.decode w in
  Alcotest.(check string) "status" "corrected" (status_name status);
  Alcotest.(check int64) "data unchanged" data d

let prop_parity_matches_reference =
  QCheck.Test.make ~name:"word parity matches the bit fold" ~count:1000 QCheck.int64 (fun v ->
      Ecc.parity v = Ref_ecc.parity v)

(* A random circuit from the families E1 uses, built from [seed]. *)
let circuit_of (family, seed) =
  let rng = Rng.create (Int64.of_int seed) in
  let small () =
    Circuit.random_logic rng ~n_inputs:(1 + Rng.int rng 8) ~n_gates:(1 + Rng.int rng 60)
  in
  match family with
  | 0 -> small ()
  | 1 -> Circuit.majority 5
  | 2 -> Circuit.majority 7
  | _ -> Circuit.replicate_with_voter (small ()) (if Rng.bool rng then 3 else 5)

let p_gates = [ 0.0; 1e-4; 0.01; 0.5; 1.0 ]

let circuit_case =
  QCheck.(
    make
      ~print:(fun ((family, seed), rng_seed) ->
        Printf.sprintf "family %d seed %d rng %d" family seed rng_seed)
      Gen.(pair (pair (0 -- 3) nat) nat))

(* Trial counts on both sides of each 63-lane word boundary. *)
let trial_counts = [ 1; 62; 63; 64; 127; 200 ]

let prop_circuit_matches_reference =
  QCheck.Test.make ~name:"word-lane evaluator equals the reference" ~count:60 circuit_case
    (fun (spec, rng_seed) ->
      let c = circuit_of spec in
      let same_draws fast slow = Int64.equal (Rng.int64 fast) (Rng.int64 slow) in
      List.for_all
        (fun p_gate ->
          let fast = Rng.create (Int64.of_int rng_seed) in
          let slow = Rng.copy fast in
          let inputs = Array.init (Circuit.n_inputs c) (fun _ -> Rng.bool fast) in
          ignore (Array.init (Circuit.n_inputs c) (fun _ -> Rng.bool slow));
          Circuit.eval c inputs = Ref_circuit.eval c inputs
          && Circuit.eval_faulty c fast ~p_gate inputs
             = Ref_circuit.eval_faulty c slow ~p_gate inputs
          && same_draws fast slow
          && List.for_all
               (fun trials ->
                 Circuit.count_correct c fast ~trials ~p_gate
                 = Ref_circuit.count_correct slow c ~trials ~p_gate
                 && same_draws fast slow)
               trial_counts)
        p_gates)

let test_circuit_extreme_p_draws_nothing () =
  (* At p = 0 and p = 1 [bernoulli] never reads the generator: a faulty
     evaluation leaves it where it was, and a Monte Carlo run draws only
     its trials' input bits. *)
  let c = circuit_of (3, 7) in
  let inputs = Array.make (Circuit.n_inputs c) true in
  List.iter
    (fun p_gate ->
      let rng = Rng.create 99L in
      let out = Circuit.eval_faulty c rng ~p_gate inputs in
      Alcotest.(check int64) (Printf.sprintf "p=%g no draw" p_gate)
        (Rng.int64 (Rng.create 99L)) (Rng.int64 rng);
      Alcotest.(check (array bool)) (Printf.sprintf "p=%g output" p_gate)
        (Ref_circuit.eval_faulty c (Rng.create 99L) ~p_gate inputs)
        out;
      List.iter
        (fun trials ->
          let rng = Rng.create 99L and expected = Rng.create 99L in
          let correct = Circuit.count_correct c rng ~trials ~p_gate in
          for _ = 1 to trials * Circuit.n_inputs c do
            ignore (Rng.int64 expected)
          done;
          Alcotest.(check int64) (Printf.sprintf "p=%g trials=%d input draws only" p_gate trials)
            (Rng.int64 expected) (Rng.int64 rng);
          Alcotest.(check int) (Printf.sprintf "p=%g trials=%d count" p_gate trials)
            (Ref_circuit.count_correct (Rng.create 99L) c ~trials ~p_gate)
            correct)
        trial_counts)
    [ 0.0; 1.0 ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_hw"
    [
      ( "ecc",
        [
          Alcotest.test_case "roundtrip basic" `Quick test_ecc_roundtrip_basic;
          Alcotest.test_case "single flip all positions" `Quick test_ecc_single_flip_all_positions;
          Alcotest.test_case "double flip detected" `Slow test_ecc_double_flip_detected;
          Alcotest.test_case "flip bounds" `Quick test_ecc_flip_bounds;
          Alcotest.test_case "flip involutive" `Quick test_ecc_flip_involutive;
        ] );
      qsuite "ecc-prop" [ prop_ecc_roundtrip; prop_ecc_corrects_any_single_flip ];
      ( "ecc-oracle",
        [
          Alcotest.test_case "triple flips match reference" `Quick
            test_ecc_triple_flips_match_reference;
          Alcotest.test_case "syndrome >= 72 reads corrected" `Quick
            test_ecc_high_syndrome_reads_corrected;
        ] );
      qsuite "ecc-oracle-prop" [ prop_ecc_matches_reference; prop_parity_matches_reference ];
      ( "register",
        [
          Alcotest.test_case "write read" `Quick test_register_write_read;
          Alcotest.test_case "plain silent corruption" `Quick test_register_plain_silent;
          Alcotest.test_case "parity detects single" `Quick test_register_parity_detects_single;
          Alcotest.test_case "parity misses double" `Quick test_register_parity_misses_double;
          Alcotest.test_case "secded corrects + scrubs" `Quick test_register_secded_corrects;
          Alcotest.test_case "secded detects double" `Quick test_register_secded_detects_double;
          Alcotest.test_case "stored bits" `Quick test_register_stored_bits;
          Alcotest.test_case "gate cost monotone" `Quick test_register_gate_cost_monotone;
          Alcotest.test_case "upset counter" `Quick test_register_upset_counter;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "majority3 truth table" `Quick test_majority3_truth_table;
          Alcotest.test_case "majority5 exhaustive" `Quick test_majority5_exhaustive;
          Alcotest.test_case "majority7 exhaustive" `Quick test_majority7_exhaustive;
          Alcotest.test_case "majority rejects even" `Quick test_majority_rejects_even;
          Alcotest.test_case "xor tree" `Quick test_xor_tree;
          Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "p=0 equals golden" `Quick test_circuit_no_faults_at_p0;
          Alcotest.test_case "gate count" `Quick test_circuit_gate_count;
          Alcotest.test_case "voter wiring" `Quick test_replicate_with_voter_masks;
          Alcotest.test_case "tmr improves reliability" `Slow test_tmr_improves_reliability;
          Alcotest.test_case "tmr voter-limited regime" `Slow test_tmr_voter_limited_regime;
          Alcotest.test_case "p=0 and p=1 draw nothing" `Quick test_circuit_extreme_p_draws_nothing;
        ] );
      qsuite "circuit-oracle-prop" [ prop_circuit_matches_reference ];
      ( "redundancy",
        [
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "tmr formula" `Quick test_tmr_formula;
          Alcotest.test_case "tmr crossover at 1/2" `Quick test_tmr_crossover_at_half;
          Alcotest.test_case "nmr monotone" `Quick test_nmr_monotone_in_n;
          Alcotest.test_case "voter penalty" `Quick test_nmr_voter_penalty;
          Alcotest.test_case "monte carlo matches analytic" `Slow test_mc_matches_analytic;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "circuit failure grows" `Quick test_complexity_circuit_grows;
          Alcotest.test_case "small favours circuit" `Quick test_complexity_small_favors_circuit;
          Alcotest.test_case "crossover exists" `Quick test_complexity_crossover_exists;
          Alcotest.test_case "sweep shape" `Quick test_complexity_sweep_shape;
        ] );
    ]
