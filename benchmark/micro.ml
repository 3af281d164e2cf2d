(* Layer microkernels: one public function each, timed in ns per
   operation. Each names the workload whose end-to-end number it should
   move (README.md has the table). *)

module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Mesh = Resoc_noc.Mesh
module Network = Resoc_noc.Network
module Quorum = Resoc_repl.Quorum
module Digest_map = Resoc_repl.Digest_map
module Slot_ring = Resoc_repl.Slot_ring
module Hash = Resoc_crypto.Hash
module Mac = Resoc_crypto.Mac
module Usig = Resoc_hybrid.Usig
module Circuit = Resoc_hw.Circuit

(* [batch n] performs about [n] operations and returns how many it did.
   The batch size grows until one batch takes 5 ms; batches then repeat
   for [budget] seconds and the fastest batch's ns/op is reported. *)
let ns_per_op ?(budget = 0.2) batch =
  let rec calibrate n =
    let _, s = Measure.time (fun () -> batch n) in
    if s >= 0.005 || n >= 1 lsl 28 then n else calibrate (2 * n)
  in
  let n = calibrate 1 in
  let t0 = Measure.now_ns () in
  let samples = ref [] in
  while Measure.seconds_since t0 < budget || List.length !samples < 5 do
    let ops, s = Measure.time (fun () -> batch n) in
    samples := (s *. 1e9 /. float_of_int (max 1 ops)) :: !samples
  done;
  Measure.minimum !samples

(* Engine.schedule plus the firing, with 64 self-rescheduling actors. *)
let schedule n =
  let e = Engine.create () in
  for i = 0 to 63 do
    let rec fire () = ignore (Engine.schedule e ~delay:(1 + ((Engine.now e + i) mod 13)) fire) in
    ignore (Engine.schedule e ~delay:(1 + (i mod 7)) fire)
  done;
  Engine.run ~max_events:n e;
  Engine.events_processed e

let idle_mesh ~multicast =
  let engine = Engine.create () in
  let mesh = Mesh.create ~width:8 ~height:8 in
  let net = Network.create engine mesh { Network.default_config with multicast } in
  let delivered = ref 0 in
  for node = 0 to 63 do
    Network.attach net ~node (fun ~src:_ () -> incr delivered)
  done;
  (engine, mesh, net, delivered)

(* One unicast at a time across the idle mesh, corner to corner. *)
let hop () =
  let engine, mesh, net, _ = idle_mesh ~multicast:false in
  fun n ->
    let hops = ref 0 in
    for i = 1 to max 1 (n / 14) do
      let src, dst = if i land 1 = 0 then (0, 63) else (7, 56) in
      Network.send net ~src ~dst ~bytes_:64 ();
      Engine.run engine;
      hops := !hops + Mesh.manhattan mesh src dst
    done;
    !hops

(* One tree multicast at a time to all 64 tiles; ops are deliveries. *)
let mcast_dest () =
  let engine, _, net, delivered = idle_mesh ~multicast:true in
  let everyone = Array.init 64 Fun.id in
  fun n ->
    let before = !delivered in
    for i = 1 to max 1 (n / 64) do
      Network.multicast net ~src:(i land 63) ~dsts:everyone ~bytes_:64 ();
      Engine.run engine
    done;
    !delivered - before

(* A 2f+1 = 3 certificate from four votes, as PBFT forms one per phase. *)
let quorum n =
  let reached = ref 0 in
  for i = 1 to n do
    let q = Quorum.add (Quorum.add (Quorum.add (Quorum.add Quorum.empty (i land 3)) 1) 2) 3 in
    if Quorum.reached q ~threshold:3 then incr reached
  done;
  ignore (Sys.opaque_identity !reached);
  n

let digests = Array.init 4096 (fun i -> Hash.combine_int Hash.zero i)

(* Insert one digest and find-and-remove the one 64 entries older: the
   request-timer pattern, with a live window of 64. *)
let digest_map () =
  let m = Digest_map.create () in
  fun n ->
    for i = 1 to n do
      Digest_map.set m digests.(i land 4095) i;
      let j = Digest_map.index m digests.((i - 64) land 4095) in
      if j >= 0 then Digest_map.remove_at m j
    done;
    n

(* Bind the next sequence number and release the one 32 below it. *)
let slot_ring () =
  let r = Slot_ring.create ~capacity:64 ~fresh:(fun i -> ref i) in
  let seq = ref 0 in
  fun n ->
    for _ = 1 to n do
      incr seq;
      let e, _ = Slot_ring.bind r !seq in
      e := !seq;
      if !seq > 32 then Slot_ring.release r (!seq - 32)
    done;
    n

let hash n =
  let h = ref Hash.zero in
  for i = 1 to n do
    h := Hash.combine !h (Int64.of_int i)
  done;
  ignore (Sys.opaque_identity !h);
  n

(* USIG certificate issue plus verification, the MinBFT per-message cost. *)
let usig_ui () =
  let key = Mac.key_of_int64 0xC0FFEEL in
  let usig = Usig.create ~id:0 ~key ~protection:Resoc_hw.Register.Secded in
  fun n ->
    for i = 1 to n do
      let digest = digests.(i land 4095) in
      match Usig.create_ui usig digest with
      | Ok ui ->
        if not (Usig.verify_ui ~key ~digest ui) then failwith "usig_ui: certificate rejected"
      | Error e -> failwith ("usig_ui: " ^ e)
    done;
    n

(* Faulty evaluation of E1's TMR circuit (a 400-gate module, three copies
   and a voter); ops are gates. *)
let gate_eval () =
  let rng = Rng.create 1001L in
  let circuit =
    Circuit.replicate_with_voter (Circuit.random_logic rng ~n_inputs:8 ~n_gates:400) 3
  in
  let inputs = Array.init (Circuit.n_inputs circuit) (fun i -> i land 1 = 0) in
  fun n ->
    let evals = max 1 (n / Circuit.gate_count circuit) in
    for _ = 1 to evals do
      ignore (Sys.opaque_identity (Circuit.eval_faulty circuit rng ~p_gate:0.001 inputs))
    done;
    evals * Circuit.gate_count circuit

(* Each entry builds its fixture and returns the batch function. *)
let kernels =
  [
    ("des.schedule_ns", fun () -> schedule);
    ("noc.hop_ns", hop);
    ("noc.mcast_dest_ns", mcast_dest);
    ("repl.quorum_ns", fun () -> quorum);
    ("repl.digest_map_ns", digest_map);
    ("repl.slot_ring_ns", slot_ring);
    ("crypto.hash_ns", fun () -> hash);
    ("hybrid.usig_ui_ns", usig_ui);
    ("hw.gate_eval_ns", gate_eval);
  ]

let run () = List.map (fun (name, fixture) -> (name, ns_per_op (fixture ()))) kernels
