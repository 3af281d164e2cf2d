(* Model equivalence for the dense replication structures.

   Quorum bitsets, view-change rounds, the open-addressed digest map and
   the slot-ring log all replace Hashtbl-backed structures on the
   replication hot path; each is checked here against the Hashtbl
   reference model it displaced, under arbitrary operation sequences
   including duplicate votes and the 2f+1 threshold crossing. *)

open Resoc_repl

(* --- Quorum bitset vs Hashtbl-of-voters ------------------------------- *)

let voter_gen = QCheck.Gen.int_bound (Quorum.max_voters - 1)

let prop_quorum_model =
  QCheck.Test.make ~name:"quorum bitset = Hashtbl voter set" ~count:300
    QCheck.(make ~print:Print.(list int) Gen.(list_size (int_bound 120) voter_gen))
    (fun voters ->
      let model = Hashtbl.create 16 in
      let q = ref Quorum.empty in
      List.for_all
        (fun voter ->
          q := Quorum.add !q voter;
          Hashtbl.replace model voter ();
          Quorum.mem !q voter
          && Quorum.count !q = Hashtbl.length model
          && List.for_all
               (fun v -> Quorum.mem !q v = Hashtbl.mem model v)
               [ 0; 7; 31; 62 ])
        voters)

let prop_threshold_crossing =
  QCheck.Test.make ~name:"2f+1 crossing matches model size" ~count:300
    QCheck.(
      make
        ~print:Print.(pair int (list int))
        Gen.(pair (int_range 0 20) (list_size (int_bound 150) voter_gen)))
    (fun (f, voters) ->
      let threshold = (2 * f) + 1 in
      let model = Hashtbl.create 16 in
      let q = ref Quorum.empty in
      List.for_all
        (fun voter ->
          let before = Quorum.reached !q ~threshold in
          q := Quorum.add !q voter;
          Hashtbl.replace model voter ();
          let after = Quorum.reached !q ~threshold in
          (* reached is monotone and agrees with the model's cardinality *)
          ((not before) || after)
          && after = (Hashtbl.length model >= threshold))
        voters)

(* --- Quorum.Rounds vs nested Hashtbl ---------------------------------- *)

(* With [current] pinned below every tallied view, no slot is ever
   stale, so Rounds must agree exactly with the nested-Hashtbl tally it
   replaces — including repeat votes updating the payload but not the
   count. *)
let prop_rounds_model =
  QCheck.Test.make ~name:"Rounds = (view -> voter -> value) Hashtbl" ~count:300
    QCheck.(
      make
        ~print:Print.(list (triple int int int))
        Gen.(
          list_size (int_bound 80)
            (triple (int_range 1 6) (int_bound 6) (int_range (-50) 50))))
    (fun ops ->
      let n = 7 in
      let rounds = Quorum.Rounds.create ~n ~rounds:2 () in
      let model : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
      List.for_all
        (fun (view, voter, value) ->
          let tally =
            match Hashtbl.find_opt model view with
            | Some t -> t
            | None ->
              let t = Hashtbl.create 8 in
              Hashtbl.replace model view t;
              t
          in
          Hashtbl.replace tally voter value;
          let got = Quorum.Rounds.note rounds ~current:0 ~view ~voter ~value in
          let model_max =
            Hashtbl.fold (fun _ v acc -> max v acc) tally min_int
          in
          got = Hashtbl.length tally
          && Quorum.Rounds.max_value rounds ~view ~default:min_int = model_max)
        ops)

let test_rounds_reclaim () =
  (* A single-slot pool: once the replica reaches the tallied view, the
     slot is reclaimable for the next view and the old tally is gone. *)
  let rounds = Quorum.Rounds.create ~n:4 ~rounds:1 () in
  Alcotest.(check int) "first vote for view 1" 1
    (Quorum.Rounds.note rounds ~current:0 ~view:1 ~voter:2 ~value:10);
  Alcotest.(check int) "repeat vote keeps count" 1
    (Quorum.Rounds.note rounds ~current:0 ~view:1 ~voter:2 ~value:11);
  Alcotest.(check int) "payload updated" 11
    (Quorum.Rounds.max_value rounds ~view:1 ~default:(-1));
  (* current = 1 now: view 1's slot is stale and claimed for view 2 *)
  Alcotest.(check int) "stale slot reclaimed for view 2" 1
    (Quorum.Rounds.note rounds ~current:1 ~view:2 ~voter:0 ~value:3);
  Alcotest.(check int) "old view's tally dropped" (-1)
    (Quorum.Rounds.max_value rounds ~view:1 ~default:(-1))

let test_check_n () =
  Quorum.check_n 0 "ok";
  Quorum.check_n 63 "ok";
  Alcotest.check_raises "n = 64 rejected"
    (Invalid_argument "grp: need 0 <= n <= 63") (fun () -> Quorum.check_n 64 "grp");
  Alcotest.check_raises "n = -1 rejected"
    (Invalid_argument "grp: need 0 <= n <= 63") (fun () -> Quorum.check_n (-1) "grp")

(* --- Digest_map vs (int64, _) Hashtbl --------------------------------- *)

type dm_op = Set of int64 * int | Remove of int64 | Reset

let dm_ops_gen key =
  QCheck.Gen.(
    list_size (int_bound 200)
      (frequency
         [
           (6, map2 (fun k v -> Set (k, v)) key (int_bound 1000));
           (3, map (fun k -> Remove k) key);
           (1, return Reset);
         ]))

(* A small key pool forces collisions, overwrites and deletions inside
   probe runs. *)
let spread_key =
  QCheck.Gen.map (fun i -> Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L) (QCheck.Gen.int_bound 40)

(* Keys whose low bits are all ones but for the last two: at every table
   size up to 1024 slots their home buckets are the last three, so their
   clusters run past the last slot and wrap to slot 0. Deleting inside
   such a cluster must shift entries back across the end of the table. *)
let wrapping_key =
  QCheck.Gen.map2
    (fun j d -> Int64.of_int ((j lsl 10) - 1 - d))
    (QCheck.Gen.int_range 1 14) (QCheck.Gen.int_bound 2)

let dm_print = function
  | Set (k, v) -> Printf.sprintf "set %Lx %d" k v
  | Remove k -> Printf.sprintf "del %Lx" k
  | Reset -> "reset"

let digest_map_model ~name key =
  QCheck.Test.make ~name ~count:300
    QCheck.(make ~print:Print.(list dm_print) (dm_ops_gen key))
    (fun ops ->
      let dm = Digest_map.create ~capacity:8 () in
      let model : (int64, int) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
           | Set (k, v) ->
             Digest_map.set dm k v;
             Hashtbl.replace model k v
           | Remove k ->
             Digest_map.remove dm k;
             Hashtbl.remove model k
           | Reset ->
             Digest_map.reset dm;
             Hashtbl.reset model);
          Digest_map.length dm = Hashtbl.length model
          && Hashtbl.fold
               (fun k v ok ->
                 ok && Digest_map.get dm k = Some v && Digest_map.mem dm k
                 && Digest_map.value_at dm (Digest_map.index dm k) = v)
               model true
          && Digest_map.fold (fun k v ok -> ok && Hashtbl.find_opt model k = Some v) dm true)
        ops)

let prop_digest_map_model = digest_map_model ~name:"Digest_map = (int64, int) Hashtbl" spread_key

let prop_digest_map_wrapping =
  digest_map_model ~name:"Digest_map = Hashtbl, clusters wrapping the table end" wrapping_key

(* The replica's find-and-remove cycle on a warmed table, as in the
   digest-map microkernel: once the table has grown to fit the live set,
   [set], [index] and [remove_at] allocate nothing, beyond the boxed
   float [Gc.minor_words] itself returns. *)
let test_digest_map_allocation_free () =
  let digests = Array.init 4096 (fun i -> Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  let m = Digest_map.create () in
  let cycle from upto =
    for i = from to upto do
      Digest_map.set m digests.(i land 4095) i;
      let j = Digest_map.index m digests.((i - 64) land 4095) in
      if j >= 0 then Digest_map.remove_at m j
    done
  in
  cycle 0 20_000;
  let before = Gc.minor_words () in
  cycle 20_001 40_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "steady live set" 64 (Digest_map.length m);
  if words > 8.0 then Alcotest.failf "the digest map allocated %.0f minor words" words

(* --- Slot_ring vs (seq, _) Hashtbl ------------------------------------ *)

type sr_op = Bind of int | Release of int

(* Mostly a dense window, salted with SEU-style outliers: counters with
   a high (or sign) bit flipped land far outside any ring capacity and
   must take the bounded-overflow path instead of growing to span the
   gap. *)
let sr_seq_gen =
  QCheck.Gen.(
    frequency
      [
        (8, int_bound 500);
        (1, map (fun k -> (1 lsl 31) + k) (int_bound 7));
        (1, map (fun k -> -((1 lsl 31) + k)) (int_bound 7));
      ])

let sr_op_gen =
  QCheck.Gen.(
    frequency [ (3, map (fun s -> Bind s) sr_seq_gen); (2, map (fun s -> Release s) sr_seq_gen) ])

let sr_print = function
  | Bind s -> Printf.sprintf "bind %d" s
  | Release s -> Printf.sprintf "release %d" s

let prop_slot_ring_model =
  QCheck.Test.make ~name:"Slot_ring = (seq, value) Hashtbl" ~count:300
    QCheck.(make ~print:Print.(list sr_print) Gen.(list_size (int_bound 150) sr_op_gen))
    (fun ops ->
      let ring = Slot_ring.create ~capacity:8 ~fresh:(fun _ -> ref (-1)) in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
           | Bind seq ->
             let cell, fresh_claim = Slot_ring.bind ring seq in
             let was_live = Hashtbl.mem model seq in
             if fresh_claim then cell := seq;  (* caller resets pooled state *)
             Hashtbl.replace model seq seq;
             fresh_claim = not was_live
           | Release seq ->
             Slot_ring.release ring seq;
             Hashtbl.remove model seq;
             true)
          && Hashtbl.fold
               (fun seq v ok ->
                 let slot = Slot_ring.slot ring seq in
                 ok && slot >= 0 && !(Slot_ring.entry ring slot) = v)
               model true
          && List.for_all
               (fun seq -> Slot_ring.mem ring seq = Hashtbl.mem model seq)
               [ 0; 1; 63; 255; 499; (1 lsl 31) + 3; -((1 lsl 31) + 3) ])
        ops)

let test_slot_ring_lazy_records () =
  (* Records are made when a slot is first claimed, then reused: a ring
     that is built but never used costs one placeholder, not [capacity]
     records. *)
  let calls = ref [] in
  let ring = Slot_ring.create ~capacity:512 ~fresh:(fun i -> calls := i :: !calls; ref i) in
  Alcotest.(check (list int)) "only the placeholder" [ -1 ] !calls;
  let first, fresh_claim = Slot_ring.bind ring 5 in
  Alcotest.(check bool) "fresh claim" true fresh_claim;
  Alcotest.(check (list int)) "slot 5 allocated" [ 5; -1 ] !calls;
  Slot_ring.release ring 5;
  let again, _ = Slot_ring.bind ring (5 + 512) in
  Alcotest.(check bool) "record reused" true (first == again);
  Alcotest.(check int) "no further allocation" 2 (List.length !calls)

let test_slot_ring_outlier_bounded () =
  (* A corrupted sequence number (SEU near bit 31/63) must not balloon
     the ring: growth stops at 2^15 slots and outliers overflow. *)
  let ring = Slot_ring.create ~capacity:8 ~fresh:(fun _ -> ref 0) in
  for s = 0 to 300 do
    let cell, _ = Slot_ring.bind ring s in
    cell := s
  done;
  let outliers = [ (1 lsl 31) + 7; -((1 lsl 31) + 7); (1 lsl 62) + 123 ] in
  List.iter
    (fun s ->
      let cell, fresh_claim = Slot_ring.bind ring s in
      Alcotest.(check bool) "outlier freshly bound" true fresh_claim;
      cell := s)
    outliers;
  Alcotest.(check bool) "ring growth capped" true (Slot_ring.capacity ring <= 1 lsl 15);
  List.iter
    (fun s ->
      let i = Slot_ring.slot ring s in
      Alcotest.(check bool) "outlier found" true (i >= 0);
      Alcotest.(check int) "outlier value" s !(Slot_ring.entry ring i);
      let _, fresh_claim = Slot_ring.bind ring s in
      Alcotest.(check bool) "rebind is not fresh" false fresh_claim)
    outliers;
  (* Swap-remove keeps the survivors reachable, and the dense window is
     untouched throughout. *)
  Slot_ring.release ring (List.hd outliers);
  Alcotest.(check bool) "released outlier gone" false (Slot_ring.mem ring (List.hd outliers));
  List.iter
    (fun s -> Alcotest.(check bool) "surviving outlier" true (Slot_ring.mem ring s))
    (List.tl outliers);
  for s = 0 to 300 do
    let i = Slot_ring.slot ring s in
    if i < 0 || !(Slot_ring.entry ring i) <> s then Alcotest.fail "window entry lost"
  done

let () =
  Alcotest.run "resoc_quorum"
    [
      ( "model",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_quorum_model;
            prop_threshold_crossing;
            prop_rounds_model;
            prop_digest_map_model;
            prop_digest_map_wrapping;
            prop_slot_ring_model;
          ] );
      ( "units",
        [
          Alcotest.test_case "rounds reclaim stale slots" `Quick test_rounds_reclaim;
          Alcotest.test_case "check_n bounds" `Quick test_check_n;
          Alcotest.test_case "digest map allocates nothing" `Quick test_digest_map_allocation_free;
          Alcotest.test_case "slot-ring outliers bounded" `Quick test_slot_ring_outlier_bounded;
          Alcotest.test_case "slot-ring records on first claim" `Quick test_slot_ring_lazy_records;
        ] );
    ]
