open Resoc_des

(* --- Heap: the engine's far-event heap --- *)

(* Drain [Ipq] keys in pop order. *)
let pop q =
  if Ipq.is_empty q then None
  else begin
    let k = Ipq.min_key q in
    Ipq.remove_min q;
    Some k
  end

let ipq_of keys =
  let q = Ipq.create () in
  List.iter (fun k -> Ipq.add q k k) keys;
  q

let drain q =
  let rec go acc = match pop q with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_heap_ordering () =
  let q = ipq_of [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ] in
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (drain q)

let test_heap_empty () =
  let q = Ipq.create () in
  Alcotest.(check bool) "is_empty" true (Ipq.is_empty q);
  Alcotest.check_raises "min_key" (Invalid_argument "Ipq.min_key: empty queue") (fun () ->
      ignore (Ipq.min_key q));
  Alcotest.(check (option int)) "pop none" None (pop q)

let test_heap_peek_stable () =
  let q = ipq_of [ 4; 2; 9 ] in
  Alcotest.(check int) "peek min" 2 (Ipq.min_key q);
  Alcotest.(check int) "size unchanged" 3 (Ipq.size q)

let test_heap_interleaved () =
  let q = ipq_of [ 5; 1 ] in
  Alcotest.(check (option int)) "pop 1" (Some 1) (pop q);
  Ipq.add q 0 0;
  Ipq.add q 7 7;
  Alcotest.(check (option int)) "pop 0" (Some 0) (pop q);
  Alcotest.(check (option int)) "pop 5" (Some 5) (pop q);
  Alcotest.(check (option int)) "pop 7" (Some 7) (pop q)

let test_heap_pop_releases () =
  (* A fired event's closure (and what it captures) must not stay pinned
     by the engine's pooled queue: the slot's action cell is cleared as
     soon as the event pops. *)
  let e = Engine.create ~seed:1L () in
  let weaks = Weak.create 4 in
  for i = 0 to 3 do
    let payload = ref (1000 + i) in
    Weak.set weaks i (Some payload);
    ignore (Engine.schedule e ~delay:(i + 1) (fun () -> incr payload))
  done;
  Engine.run e;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected" i)
      false (Weak.check weaks i)
  done;
  (* The engine itself stays live across the collection above. *)
  Alcotest.(check int) "clock" 4 (Engine.now (Sys.opaque_identity e))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs -> drain (ipq_of xs) = List.sort compare xs)

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different streams" false (Int64.equal (Rng.int64 a) (Rng.int64 b))

let test_rng_split_independent () =
  (* The child's stream is fixed at split time: later parent draws must not
     perturb it. *)
  let p1 = Rng.create 7L in
  let c1 = Rng.split p1 in
  let v1 = Rng.int64 c1 in
  let p2 = Rng.create 7L in
  let c2 = Rng.split p2 in
  ignore (Rng.int64 p2);
  Alcotest.(check int64) "child stream stable" v1 (Rng.int64 c2)

let test_rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 4L in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_exponential_mean () =
  let r = Rng.create 5L in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 10" true (Float.abs (mean -. 10.0) < 0.5)

let test_bernoulli_rate () =
  let r = Rng.create 6L in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_bernoulli_extremes () =
  let r = Rng.create 6L in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r 1.0)

let test_poisson_mean () =
  let r = Rng.create 7L in
  let n = 10000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.poisson r ~mean:4.0
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.0) < 0.2)

let test_weibull_positive () =
  let r = Rng.create 8L in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.weibull r ~shape:2.0 ~scale:5.0 > 0.0)
  done

(* The draw link wear-out takes: the mean of Weibull(k = 2, λ = 100) is
   λ·Γ(1 + 1/k) = 50·√π. *)
let test_weibull_mean () =
  let rng = Rng.create 23L in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.weibull rng ~shape:2.0 ~scale:100.0
  done;
  let mean = !sum /. float_of_int n and analytic = 50.0 *. sqrt Float.pi in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %f vs analytic %f" mean analytic)
    true
    (Float.abs (mean -. analytic) < 2.0)

let test_shuffle_permutation () =
  let r = Rng.create 9L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_geometric_endpoints () =
  (* p = 1.0: success on the first trial, deterministically 0 — the old
     code computed log u / log 0 = 0/-inf and fed int_of_float an
     implementation-defined value. *)
  let r = Rng.create 11L in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is always 0" 0 (Rng.geometric r ~p:1.0)
  done;
  (* p = 1.0 consumes no draw: the stream is unperturbed. *)
  let a = Rng.create 12L and b = Rng.create 12L in
  ignore (Rng.geometric a ~p:1.0);
  Alcotest.(check int64) "no draw consumed" (Rng.int64 b) (Rng.int64 a);
  let err = Invalid_argument "Rng.geometric: p must be in (0,1]" in
  Alcotest.check_raises "p=0 rejected" err (fun () -> ignore (Rng.geometric r ~p:0.0));
  Alcotest.check_raises "p<0 rejected" err (fun () -> ignore (Rng.geometric r ~p:(-0.5)));
  Alcotest.check_raises "p>1 rejected" err (fun () -> ignore (Rng.geometric r ~p:1.5));
  (* Tiny p: the draw can push the quotient past the int range; the clamp
     must keep the result a non-negative int instead of wrapping. *)
  for _ = 1 to 1000 do
    Alcotest.(check bool) "tiny p non-negative" true (Rng.geometric r ~p:1e-300 >= 0)
  done

let test_poisson_endpoints () =
  let r = Rng.create 13L in
  Alcotest.(check int) "mean=0 is 0" 0 (Rng.poisson r ~mean:0.0);
  Alcotest.check_raises "negative mean rejected"
    (Invalid_argument "Rng.poisson: mean must be non-negative") (fun () ->
      ignore (Rng.poisson r ~mean:(-1.0)));
  (* Above the normal-approximation cutoff the Float.round draw must stay
     clamped to [0, max_int] — never truncated into a negative int. *)
  for _ = 1 to 1000 do
    Alcotest.(check bool) "huge mean non-negative" true (Rng.poisson r ~mean:1e18 >= 0)
  done

let test_geometric_mean () =
  let r = Rng.create 10L in
  let n = 20000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric r ~p:0.25
  done;
  (* mean of failures before success = (1-p)/p = 3 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.2)

(* The first outputs of [create 42L], captured before the state moved into a
   byte buffer: any change to the SplitMix stream fails here, not as a drift
   in some experiment table. *)
let draws n f = List.init n (fun _ -> f ())

let test_rng_stream_pinned () =
  let r = Rng.create 42L in
  Alcotest.(check (list int64)) "int64"
    [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L ]
    (draws 3 (fun () -> Rng.int64 r));
  let r = Rng.create 42L in
  Alcotest.(check (list int)) "int 1000" [ 605; 291; 954; 860; 250 ]
    (draws 5 (fun () -> Rng.int r 1000));
  let r = Rng.create 42L in
  Alcotest.(check (list (float 0.0))) "float 1.0"
    [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2 ]
    (draws 3 (fun () -> Rng.float r 1.0));
  let r = Rng.create 42L in
  Alcotest.(check (list bool)) "bool"
    [ true; true; false; false; false; false; true; false;
      true; false; true; false; false; true; false; false ]
    (draws 16 (fun () -> Rng.bool r));
  let r = Rng.create 42L in
  Alcotest.(check (list bool)) "bernoulli 0.3"
    [ false; true; true; false; true; false; true; false;
      false; false; true; false; false; false; false; true ]
    (draws 16 (fun () -> Rng.bernoulli r 0.3));
  let r = Rng.create 42L in
  let c = Rng.split r in
  Alcotest.(check (list int64)) "split child"
    [ 0xF5C2C3FA732B301BL; 0x727B2690CC89BBBCL; 0xD74AB59060A2BD0AL ]
    (draws 3 (fun () -> Rng.int64 c));
  Alcotest.(check int64) "split advances the parent once" 0x28EFE333B266F103L (Rng.int64 r);
  let r = Rng.create 42L in
  ignore (Rng.int64 r);
  let c = Rng.copy r in
  Alcotest.(check int64) "copy" 0x28EFE333B266F103L (Rng.int64 c);
  Alcotest.(check int64) "copy leaves the original" 0x28EFE333B266F103L (Rng.int64 r);
  Alcotest.(check (list int64)) "derive"
    [ 0x77B5458A66FC223EL; 0xFA9D3C01052ADD31L; 0x6D9DCE05E0A9AA5DL ]
    (List.map (Rng.derive 42L) [ 0; 1; 5 ])

(* The draws that return an immediate allocate nothing, so the gate-level
   Monte Carlo can call them once per gate per trial. The slack covers the
   boxed floats [Gc.minor_words] itself returns. *)
let test_rng_draws_allocation_free () =
  let r = Rng.create 42L in
  let check name draw =
    let before = Gc.minor_words () in
    for _ = 1 to 100_000 do
      draw ()
    done;
    let words = Gc.minor_words () -. before in
    if words > 64.0 then Alcotest.failf "%s: 100k draws allocated %.0f minor words" name words
  in
  check "int" (fun () -> ignore (Sys.opaque_identity (Rng.int r 1000)));
  check "bool" (fun () -> ignore (Sys.opaque_identity (Rng.bool r)));
  check "bernoulli" (fun () -> ignore (Sys.opaque_identity (Rng.bernoulli r 0.3)));
  check "bool_lanes" (fun () ->
      ignore (Sys.opaque_identity (Rng.bool_lanes r ~first:5 ~stride:7 ~lanes:63)));
  check "bernoulli_lanes" (fun () ->
      ignore (Sys.opaque_identity (Rng.bernoulli_lanes r 0.3 ~first:5 ~stride:7 ~lanes:63)));
  check "skip" (fun () -> Rng.skip r 1000)

(* The lane helpers read draws out of order; they must give the bits that
   one-at-a-time draws at the same offsets give, and leave the generator
   where it was. [draw] is one [Rng.bool] or [Rng.bernoulli] call. *)
let sequential_mask draw r ~first ~stride ~lanes =
  let walker = Rng.copy r and pos = ref 0 and mask = ref 0 in
  for l = 0 to lanes - 1 do
    while !pos < first + (l * stride) do
      ignore (Rng.int64 walker);
      incr pos
    done;
    if draw (Rng.copy walker) then mask := !mask lor (1 lsl l)
  done;
  !mask

let lane_ps = [ 0.0; Float.min_float; 1e-3; 0.5; 1.0 -. epsilon_float; Float.pred 1.0; 1.0 ]

let prop_lane_draws_match_sequential =
  QCheck.Test.make ~name:"lane draws match sequential draws" ~count:300
    QCheck.(
      make
        ~print:(fun (seed, p, (first, stride, lanes)) ->
          Printf.sprintf "seed %Ld p %h first %d stride %d lanes %d" seed p first stride lanes)
        Gen.(triple ui64 (oneofl lane_ps) (triple (0 -- 200) (1 -- 12) (0 -- 63))))
    (fun (seed, p, (first, stride, lanes)) ->
      let r = Rng.create seed in
      let untouched = Rng.copy r in
      Rng.bool_lanes r ~first ~stride ~lanes = sequential_mask Rng.bool r ~first ~stride ~lanes
      && Rng.bernoulli_lanes r p ~first ~stride ~lanes
         = sequential_mask (fun c -> Rng.bernoulli c p) r ~first ~stride ~lanes
      && Int64.equal (Rng.int64 r) (Rng.int64 untouched))

let prop_skip_matches_draws =
  QCheck.Test.make ~name:"skip equals k draws" ~count:300
    QCheck.(pair int64 (0 -- 300))
    (fun (seed, k) ->
      let skipped = Rng.create seed and drawn = Rng.create seed in
      Rng.skip skipped k;
      for _ = 1 to k do
        ignore (Rng.int64 drawn)
      done;
      Int64.equal (Rng.int64 skipped) (Rng.int64 drawn))

(* --- Engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log));
  ignore (Engine.schedule e ~delay:5 (fun () -> log := 5 :: !log));
  ignore (Engine.schedule e ~delay:20 (fun () -> log := 20 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 5; 10; 20 ] (List.rev !log)

let test_engine_fifo_same_cycle () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:5 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:5 (fun () -> log := 2 :: !log));
  ignore (Engine.schedule e ~delay:5 (fun () -> log := 3 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "fifo within a cycle" [ 1; 2; 3 ] (List.rev !log)

let test_engine_now_advances () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:7 (fun () -> Alcotest.(check int) "now inside event" 7 (Engine.now e)));
  Engine.run e;
  Alcotest.(check int) "now after run" 7 (Engine.now e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref [] in
  ignore
    (Engine.schedule e ~delay:3 (fun () ->
         ignore (Engine.schedule e ~delay:4 (fun () -> hits := Engine.now e :: !hits))));
  Engine.run e;
  Alcotest.(check (list int)) "nested fires at 7" [ 7 ] !hits

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:5 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  Alcotest.(check bool) "cancelled never fires" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:5 (fun () -> fired := 5 :: !fired));
  ignore (Engine.schedule e ~delay:50 (fun () -> fired := 50 :: !fired));
  Engine.run ~until:10 e;
  Alcotest.(check (list int)) "only early event" [ 5 ] !fired;
  Alcotest.(check int) "clock clamped to horizon" 10 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "late event after resume" [ 50; 5 ] !fired

let test_engine_every () =
  let e = Engine.create () in
  let ticks = ref [] in
  Engine.every e ~period:10 (fun () -> ticks := Engine.now e :: !ticks);
  Engine.run ~until:35 e;
  Alcotest.(check (list int)) "periodic ticks" [ 10; 20; 30 ] (List.rev !ticks)

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:1 (fun () ->
      incr count;
      if !count = 5 then Engine.stop e);
  Engine.run ~until:100 e;
  Alcotest.(check int) "stopped after 5" 5 !count

let test_engine_max_events () =
  let e = Engine.create () in
  Engine.every e ~period:1 (fun () -> ());
  Engine.run ~max_events:10 e;
  Alcotest.(check bool) "bounded" true (Engine.events_processed e <= 11)

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: time is in the past") (fun () ->
          ignore (Engine.at e ~time:2 (fun () -> ())))));
  Engine.run e

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create ~seed:99L () in
    let rng = Rng.split (Engine.rng e) in
    let acc = ref [] in
    Engine.every e ~period:3 (fun () -> acc := Rng.int rng 1000 :: !acc);
    Engine.run ~until:60 e;
    !acc
  in
  Alcotest.(check (list int)) "same seed same trace" (run_once ()) (run_once ())

let test_engine_cancel_after_fire () =
  (* A handle outlives its event: cancelling after the fire — even once
     the pooled slot has been recycled by a later event — must be a
     no-op thanks to the generation stamp. *)
  let e = Engine.create () in
  let fired_a = ref false and fired_b = ref false in
  let ha = Engine.schedule e ~delay:1 (fun () -> fired_a := true) in
  Engine.run e;
  Alcotest.(check bool) "a fired" true !fired_a;
  ignore (Engine.schedule e ~delay:1 (fun () -> fired_b := true));
  Engine.cancel e ha;
  (* stale: must not kill b's recycled slot *)
  Engine.run e;
  Alcotest.(check bool) "b unaffected by stale cancel" true !fired_b

let test_engine_cancel_middle_fifo () =
  (* Same-cycle FIFO must survive lazy deletion: cancelling events in
     the middle of a cycle leaves the survivors in schedule order. *)
  let e = Engine.create () in
  let log = ref [] in
  let handles =
    List.init 8 (fun i -> Engine.schedule e ~delay:5 (fun () -> log := i :: !log))
  in
  List.iteri (fun i h -> if i mod 2 = 1 then Engine.cancel e h) handles;
  ignore (Engine.schedule e ~delay:5 (fun () -> log := 8 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "survivors in order" [ 0; 2; 4; 6; 8 ] (List.rev !log)

let test_engine_cancel_heavy_purge () =
  (* Push far past the purge threshold (64 corpses, half the queue dead)
     and check the survivors still fire exactly once, in order. *)
  let e = Engine.create () in
  let count = ref 0 and last = ref (-1) in
  let doomed = ref [] in
  for i = 0 to 999 do
    let h =
      Engine.at e ~time:10 (fun () ->
          incr count;
          Alcotest.(check bool) "ascending" true (i > !last);
          last := i)
    in
    if i mod 4 <> 0 then doomed := h :: !doomed
  done;
  List.iter (Engine.cancel e) !doomed;
  Engine.run e;
  Alcotest.(check int) "survivors fired" 250 !count

let test_engine_purge_allocation_free () =
  (* The purge filters the far heap in place and re-heapifies it. Fill
     both levels, cancel exactly half (no purge yet), then time the
     cancel that tips the dead past half: it purges, allocating nothing
     beyond the boxed floats [Gc.minor_words] itself returns. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let action () = incr fired in
  let handles =
    Array.init 1000 (fun i ->
        Engine.at e ~time:(if i mod 3 = 0 then 10 else 500 + (i * 7 mod 300)) action)
  in
  for i = 0 to 499 do
    Engine.cancel e handles.(2 * i)
  done;
  Alcotest.(check int) "no purge at half" 1000 (Engine.pending e);
  let before = Gc.minor_words () in
  Engine.cancel e handles.(1);
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "purged" 499 (Engine.pending e);
  if words > 8.0 then Alcotest.failf "the purge allocated %.0f minor words" words;
  Engine.run e;
  Alcotest.(check int) "survivors fired" 499 !fired

let test_engine_seq_era_renumber () =
  (* Burn through a full 2^20 sequence era while a cohort of same-time
     events is pending; the renumbering must preserve their firing order
     and their interleaving with events scheduled after the era rolls.
     Only far events (due 64 or more cycles ahead) draw seqs, so every
     tick also schedules one: ~1.1M of them exhaust the first era mid-run. *)
  let e = Engine.create () in
  let t_meet = 1_200_000 in
  let log = ref [] in
  for i = 0 to 49 do
    ignore (Engine.at e ~time:t_meet (fun () -> log := i :: !log))
  done;
  Engine.every e ~period:1 (fun () -> ignore (Engine.schedule e ~delay:100 ignore));
  Engine.run ~until:1_100_000 e;
  for i = 50 to 99 do
    ignore (Engine.at e ~time:t_meet (fun () -> log := i :: !log))
  done;
  Engine.run ~until:(t_meet + 1) e;
  Alcotest.(check (list int)) "cohort order across era roll" (List.init 100 Fun.id)
    (List.rev !log)

(* Fire-order log helpers for the wheel-edge cases below. *)
let logger () =
  let log = ref [] in
  (log, fun tag () -> log := tag :: !log)

let fired log = List.rev !log

let test_engine_heap_before_wheel () =
  (* [far] is scheduled 100 cycles ahead, beyond the wheel; [near] is
     scheduled for the same cycle once it is 60 cycles ahead. [far] was
     scheduled first, so it fires first. *)
  let e = Engine.create () in
  let log, tag = logger () in
  ignore (Engine.at e ~time:100 (tag "far"));
  ignore (Engine.at e ~time:40 (fun () -> ignore (Engine.schedule e ~delay:60 (tag "near"))));
  Engine.run e;
  Alcotest.(check (list string)) "heap first" [ "far"; "near" ] (fired log)

let test_engine_clamp_then_earlier () =
  (* After [run ~until] clamps the clock with nothing due, an event
     scheduled for before the next queued one still fires first: both when
     that one is still far and when the clamp brought it into the wheel. *)
  List.iter
    (fun queued_at ->
      let e = Engine.create () in
      let log, tag = logger () in
      ignore (Engine.at e ~time:queued_at (tag "queued"));
      Engine.run ~until:500 e;
      Alcotest.(check int) "clamped" 500 (Engine.now e);
      ignore (Engine.schedule e ~delay:10 (tag "new"));
      Engine.run e;
      Alcotest.(check (list string))
        (Printf.sprintf "queued at %d" queued_at)
        [ "new"; "queued" ] (fired log))
    [ 520; 5_000 ]

let test_engine_wheel_edge () =
  (* Delays 63, 64 and 65 from cycle 0 straddle the wheel's edge: 63 goes
     straight into the wheel, 64 and 65 into the heap. Events scheduled
     later for cycles 64 and 65, by then inside the wheel, follow them. *)
  let e = Engine.create () in
  let log, tag = logger () in
  ignore (Engine.schedule e ~delay:65 (tag "x65"));
  ignore (Engine.schedule e ~delay:64 (tag "x64"));
  ignore (Engine.schedule e ~delay:63 (tag "x63"));
  ignore (Engine.at e ~time:1 (fun () -> ignore (Engine.schedule e ~delay:63 (tag "y64"))));
  ignore (Engine.at e ~time:2 (fun () -> ignore (Engine.schedule e ~delay:63 (tag "z65"))));
  Alcotest.(check int) "pending" 5 (Engine.pending e);
  let times = ref [] in
  while Engine.step e do
    times := Engine.now e :: !times
  done;
  Alcotest.(check (list string)) "order" [ "x63"; "x64"; "y64"; "x65"; "z65" ] (fired log);
  Alcotest.(check (list int)) "clock" [ 1; 2; 63; 64; 64; 65; 65 ] (List.rev !times)

let test_engine_cancel_migrated () =
  (* An event scheduled beyond the wheel moves into it when the clock
     comes within 64 cycles; its handle must still cancel it there. *)
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.at e ~time:200 (fun () -> fired := true) in
  ignore (Engine.at e ~time:150 ignore);
  Engine.run ~until:150 e;
  Engine.cancel e h;
  Alcotest.(check int) "corpse still queued" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "never fires" false !fired;
  Alcotest.(check int) "corpse popped" 0 (Engine.pending e);
  Alcotest.(check int) "clock stays at the last live event" 150 (Engine.now e)

let test_engine_delay_zero_in_action () =
  (* A delay-0 schedule from inside an action joins the end of the
     current cycle: after events already queued for it. *)
  let e = Engine.create () in
  let log, tag = logger () in
  ignore
    (Engine.at e ~time:5 (fun () ->
         tag "a" ();
         ignore (Engine.schedule e ~delay:0 (fun () ->
             Alcotest.(check int) "same cycle" 5 (Engine.now e);
             tag "c" ()))));
  ignore (Engine.at e ~time:5 (tag "b"));
  ignore (Engine.at e ~time:6 (tag "d"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c"; "d" ] (fired log)

let test_engine_budget_keeps_clock () =
  (* [run ~until ~max_events] that runs out of budget before the horizon
     leaves the clock at the last event fired; the rest fire in order. *)
  let e = Engine.create () in
  let log, tag = logger () in
  List.iter (fun time -> ignore (Engine.at e ~time (tag (string_of_int time)))) [ 10; 20; 30 ];
  Engine.run ~until:100 ~max_events:2 e;
  Alcotest.(check int) "clock at the last event" 20 (Engine.now e);
  Engine.run ~until:100 e;
  Alcotest.(check (list string)) "all in order" [ "10"; "20"; "30" ] (fired log);
  Alcotest.(check int) "then clamped" 100 (Engine.now e)

(* --- Engine against its reference model --- *)

(* What the script interpreter needs from an event queue: [Engine] and
   [Engine_reference] both provide it. *)
module type QUEUE = sig
  type t
  type handle

  val now : t -> int
  val at : t -> time:int -> (unit -> unit) -> handle
  val schedule : t -> delay:int -> (unit -> unit) -> handle
  val every : t -> period:int -> ?start:int -> (unit -> unit) -> unit
  val cancel : t -> handle -> unit
  val pending : t -> int
  val events_processed : t -> int
  val step : t -> bool
  val run : ?until:int -> ?max_events:int -> t -> unit
end

type op =
  | Schedule of int * int option  (** delay, and the delay of a child it schedules when it fires *)
  | At of int  (** at [now + delay] *)
  | Every of int * int option  (** period, and the start as an offset from [now] *)
  | Burst of int * int  (** n events at one delay *)
  | Cancel of int  (** the i-th event scheduled so far, modulo their count *)
  | Cancel_span of int * int  (** n events from the i-th on *)
  | Step
  | Run_until of int  (** [run ~until:(now + d)] *)
  | Run_max of int
  | Run_both of int * int

let show_op = function
  | Schedule (d, c) ->
    Printf.sprintf "Schedule %d%s" d
      (match c with Some c -> Printf.sprintf " (child %d)" c | None -> "")
  | At d -> Printf.sprintf "At +%d" d
  | Every (p, s) ->
    Printf.sprintf "Every %d%s" p (match s with Some s -> Printf.sprintf " from +%d" s | None -> "")
  | Burst (n, d) -> Printf.sprintf "Burst %d x %d" n d
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Cancel_span (i, n) -> Printf.sprintf "Cancel_span %d+%d" i n
  | Step -> "Step"
  | Run_until d -> Printf.sprintf "Run_until +%d" d
  | Run_max n -> Printf.sprintf "Run_max %d" n
  | Run_both (d, n) -> Printf.sprintf "Run_both +%d max %d" d n

(* Every event gets an id in scheduling order and logs it when it fires;
   a periodic timer logs its one id at every tick. *)
module Script (Q : QUEUE) = struct
  type s = {
    q : Q.t;
    handles : (int, Q.handle) Hashtbl.t;
    mutable ids : int;
    mutable fired : int list;
    mutable stepped : bool;
  }

  let create q = { q; handles = Hashtbl.create 64; ids = 0; fired = []; stepped = false }

  let fresh s =
    let id = s.ids in
    s.ids <- id + 1;
    id

  let rec add s ~delay ~child =
    let id = fresh s in
    let action () =
      s.fired <- id :: s.fired;
      Option.iter (fun delay -> add s ~delay ~child:None) child
    in
    Hashtbl.replace s.handles id (Q.schedule s.q ~delay action)

  let cancel s i =
    if s.ids > 0 then Option.iter (Q.cancel s.q) (Hashtbl.find_opt s.handles (i mod s.ids))

  let exec s = function
    | Schedule (delay, child) -> add s ~delay ~child
    | At d ->
      let id = fresh s in
      Hashtbl.replace s.handles id
        (Q.at s.q ~time:(Q.now s.q + d) (fun () -> s.fired <- id :: s.fired))
    | Every (period, start) ->
      let id = fresh s in
      let start = Option.map (fun d -> Q.now s.q + d) start in
      Q.every s.q ~period ?start (fun () -> s.fired <- id :: s.fired)
    | Burst (n, delay) ->
      for _ = 1 to n do
        add s ~delay ~child:None
      done
    | Cancel i -> cancel s i
    | Cancel_span (i, n) ->
      for k = i to i + n - 1 do
        cancel s k
      done
    | Step -> s.stepped <- Q.step s.q
    | Run_until d -> Q.run ~until:(Q.now s.q + d) s.q
    | Run_max n -> Q.run ~max_events:n s.q
    | Run_both (d, n) -> Q.run ~until:(Q.now s.q + d) ~max_events:n s.q

  (* What the property compares after every operation. *)
  let observe s = (List.rev s.fired, Q.now s.q, Q.pending s.q, Q.events_processed s.q, s.stepped)
end

module Real = Script (Engine)

module Model = Script (Engine_reference)

let script_delays = [ 0; 1; 5; 62; 63; 64; 65; 2_500; 100_000 ]

let gen_script =
  let open QCheck.Gen in
  let delay = oneofl script_delays in
  list_size (1 -- 150)
    (frequency
       [
         (5, map2 (fun d c -> Schedule (d, c)) delay (opt delay));
         (1, map (fun d -> At d) delay);
         (1, map2 (fun p s -> Every (p, s)) (oneofl [ 62; 63; 64; 65; 2_500 ]) (opt delay));
         (2, map2 (fun n d -> Burst (n, d)) (1 -- 120) delay);
         (3, map (fun i -> Cancel i) nat);
         (2, map2 (fun i n -> Cancel_span (i, n)) nat (1 -- 120));
         (3, return Step);
         (2, map (fun d -> Run_until d) delay);
         (1, map (fun n -> Run_max n) (0 -- 300));
         (1, map2 (fun d n -> Run_both (d, n)) delay (0 -- 300));
       ])

let show_obs (fired, now, pending, processed, stepped) =
  Printf.sprintf "now %d pending %d processed %d stepped %b fired [%s]" now pending processed
    stepped
    (String.concat ";" (List.map string_of_int fired))

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches the reference queue" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen_script)
    (fun ops ->
      let real = Real.create (Engine.create ())
      and model = Model.create (Engine_reference.create ()) in
      List.iteri
        (fun i op ->
          Real.exec real op;
          Model.exec model op;
          let r = Real.observe real and m = Model.observe model in
          if r <> m then
            QCheck.Test.fail_reportf "after op %d (%s):@.engine %s@.model  %s" i (show_op op)
              (show_obs r) (show_obs m))
        ops;
      true)

let test_scripts_reach_purge () =
  (* The property above only tests the purge if its scripts cross the
     threshold: check that a fixed sample of them does, often. *)
  let scripts = QCheck.Gen.generate ~rand:(Random.State.make [| 34 |]) ~n:100 gen_script in
  let purged =
    List.length
      (List.filter
         (fun ops ->
           let model = Model.create (Engine_reference.create ()) in
           List.iter (Model.exec model) ops;
           model.Model.q.Engine_reference.purges > 0)
         scripts)
  in
  if purged < 10 then Alcotest.failf "only %d of 100 scripts purge" purged

let prop_ipq_model =
  (* The int-keyed heap against the obvious model: a sorted list. Keys
     are made unique by packing the op index into the low bits, exactly
     like the engine packs (time, seq). *)
  QCheck.Test.make ~name:"ipq matches sorted-list model" ~count:200
    QCheck.(list (pair small_nat bool))
    (fun ops ->
      let q = Ipq.create () in
      let model = ref [] in
      let ok = ref true in
      List.iteri
        (fun i (k, pop) ->
          if pop && !model <> [] then begin
            let mk, mv = List.hd !model in
            ok := !ok && Ipq.min_key q = mk && Ipq.min_val q = mv;
            Ipq.remove_min q;
            model := List.tl !model
          end
          else begin
            let key = (k lsl 20) lor i in
            Ipq.add q key i;
            model := List.merge compare [ (key, i) ] !model
          end)
        ops;
      ok := !ok && Ipq.size q = List.length !model;
      (* Filter in place and re-heapify (the purge path): the survivors
         pop in key order. *)
      let keep (_, v) = v mod 3 <> 0 in
      let kept = ref 0 in
      for i = 0 to Ipq.size q - 1 do
        let k = Ipq.nth_key q i and v = Ipq.nth_val q i in
        if keep (k, v) then begin
          Ipq.set_nth q !kept k v;
          incr kept
        end
      done;
      Ipq.truncate q !kept;
      Ipq.heapify q;
      let model = List.filter keep !model in
      let half = List.length model / 2 in
      List.iteri
        (fun i (mk, mv) ->
          if i < half then begin
            ok := !ok && Ipq.min_key q = mk && Ipq.min_val q = mv;
            Ipq.remove_min q
          end)
        model;
      (* In-place sort (the renumbering path): the store lists the rest of
         the model in order and still pops as a heap. *)
      let rest = List.filteri (fun i _ -> i >= half) model in
      Ipq.sort q;
      ok := !ok && List.init (Ipq.size q) (fun i -> (Ipq.nth_key q i, Ipq.nth_val q i)) = rest;
      List.iter
        (fun (mk, mv) ->
          ok := !ok && Ipq.min_key q = mk && Ipq.min_val q = mv;
          Ipq.remove_min q)
        rest;
      !ok && Ipq.is_empty q)

(* --- Metrics --- *)

let test_histogram_stats () =
  let h = Metrics.Histogram.create "h" in
  List.iter (Metrics.Histogram.add h) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Metrics.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Metrics.Histogram.min h);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Metrics.Histogram.max h);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.0) (Metrics.Histogram.stddev h)

let test_histogram_percentile () =
  let h = Metrics.Histogram.create "h" in
  for i = 1 to 100 do
    Metrics.Histogram.add h (float_of_int i)
  done;
  Alcotest.(check (float 1.0)) "p50" 50.0 (Metrics.Histogram.percentile h 50.0);
  Alcotest.(check (float 1.0)) "p99" 99.0 (Metrics.Histogram.percentile h 99.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Metrics.Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Metrics.Histogram.percentile h 100.0)

let test_percentile_small_n () =
  (* The regression the nearest-rank fix pins down: with two samples, p50
     is the FIRST sample (half the mass is at or below it) — the old
     round (p/100 x (n-1)) definition returned the max. *)
  let h = Metrics.Histogram.create "h" in
  Metrics.Histogram.add h 1.0;
  Metrics.Histogram.add h 2.0;
  Alcotest.(check (float 1e-9)) "p50 of 2 samples" 1.0 (Metrics.Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p51 of 2 samples" 2.0 (Metrics.Histogram.percentile h 51.0);
  let one = Metrics.Histogram.create "one" in
  Metrics.Histogram.add one 7.0;
  Alcotest.(check (float 1e-9)) "p0 of 1 sample" 7.0 (Metrics.Histogram.percentile one 0.0);
  Alcotest.(check (float 1e-9)) "p99 of 1 sample" 7.0 (Metrics.Histogram.percentile one 99.0)

let prop_percentile_oracle =
  (* Nearest-rank reference oracle on a sorted array: the smallest sample
     with at least p% of the mass at or below it. *)
  QCheck.Test.make ~name:"percentile matches nearest-rank oracle" ~count:500
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_inclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let h = Metrics.Histogram.create "h" in
      List.iter (Metrics.Histogram.add h) xs;
      let sorted = Array.of_list xs in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
      let rank = Stdlib.max 0 (Stdlib.min (n - 1) rank) in
      Float.equal (Metrics.Histogram.percentile h p) sorted.(rank))

let test_histogram_empty () =
  let h = Metrics.Histogram.create "h" in
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Metrics.Histogram.mean h);
  Alcotest.(check (float 0.0)) "percentile empty" 0.0 (Metrics.Histogram.percentile h 50.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_des"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek stable" `Quick test_heap_peek_stable;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "pop releases payloads" `Quick test_heap_pop_releases;
        ] );
      qsuite "heap-prop" [ prop_heap_sorts; prop_ipq_model ];
      qsuite "rng-prop" [ prop_lane_draws_match_sequential; prop_skip_matches_draws ];
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "poisson mean" `Slow test_poisson_mean;
          Alcotest.test_case "weibull positive" `Quick test_weibull_positive;
          Alcotest.test_case "weibull mean" `Slow test_weibull_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "geometric endpoints" `Quick test_geometric_endpoints;
          Alcotest.test_case "poisson endpoints" `Quick test_poisson_endpoints;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "draws allocation-free" `Quick test_rng_draws_allocation_free;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo same cycle" `Quick test_engine_fifo_same_cycle;
          Alcotest.test_case "now advances" `Quick test_engine_now_advances;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until + resume" `Quick test_engine_until;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire;
          Alcotest.test_case "cancel middle fifo" `Quick test_engine_cancel_middle_fifo;
          Alcotest.test_case "cancel heavy purge" `Quick test_engine_cancel_heavy_purge;
          Alcotest.test_case "seq era renumber" `Slow test_engine_seq_era_renumber;
          Alcotest.test_case "heap event before wheel event" `Quick test_engine_heap_before_wheel;
          Alcotest.test_case "clamp then earlier event" `Quick test_engine_clamp_then_earlier;
          Alcotest.test_case "wheel edge 63/64/65" `Quick test_engine_wheel_edge;
          Alcotest.test_case "cancel after migration" `Quick test_engine_cancel_migrated;
          Alcotest.test_case "delay 0 inside an action" `Quick test_engine_delay_zero_in_action;
          Alcotest.test_case "budget keeps the clock" `Quick test_engine_budget_keeps_clock;
          Alcotest.test_case "scripts reach the purge" `Quick test_scripts_reach_purge;
          Alcotest.test_case "purge allocates nothing" `Quick test_engine_purge_allocation_free;
        ] );
      qsuite "engine-prop" [ prop_engine_matches_reference ];
      ( "metrics",
        [
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
          Alcotest.test_case "percentile small n" `Quick test_percentile_small_n;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
        ] );
      qsuite "metrics-prop" [ prop_percentile_oracle ];
    ]
