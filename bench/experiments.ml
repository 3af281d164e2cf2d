(* Experiment harnesses regenerating the paper-style tables E1-E9 and F1.
   The paper (DSN'23 Disrupt) has no numeric tables of its own; each table
   here quantifies one concrete claim, cited in DESIGN.md section 3. *)

module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Histogram = Resoc_des.Metrics.Histogram
module Circuit = Resoc_hw.Circuit
module Redundancy = Resoc_hw.Redundancy
module Register = Resoc_hw.Register
module Complexity = Resoc_hw.Complexity
module Usig = Resoc_hybrid.Usig
module Behavior = Resoc_fault.Behavior
module Seu = Resoc_fault.Seu
module Apt = Resoc_fault.Apt
module Common_mode = Resoc_fault.Common_mode
module Region = Resoc_fabric.Region
module Grid = Resoc_fabric.Grid
module Icap = Resoc_fabric.Icap
module Bitstream = Resoc_fabric.Bitstream
module Transport = Resoc_repl.Transport
module Stats = Resoc_repl.Stats
module Minbft = Resoc_repl.Minbft
module Diversity = Resoc_resilience.Diversity
module Rejuvenation = Resoc_resilience.Rejuvenation
module Threat = Resoc_resilience.Threat
module Adaptation = Resoc_resilience.Adaptation
module Governance = Resoc_resilience.Governance
module Soc = Resoc_core.Soc
module Group = Resoc_core.Group
module Resilient_system = Resoc_core.Resilient_system
module Generator = Resoc_workload.Generator

module Campaign = Resoc_campaign.Campaign
module Cstats = Resoc_campaign.Stats
module Emit = Resoc_campaign.Emit
module Replay = Resoc_check.Replay

let header title claim =
  Printf.printf "\n=== %s ===\n%s\n\n" title claim

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Campaign plumbing: every multi-seed experiment goes through the     *)
(* resoc_campaign runner. Replicate seeds come from the SplitMix64     *)
(* seed tree under one root seed, so [--seeds N] scales every          *)
(* experiment uniformly and aggregates are bit-identical regardless of *)
(* the worker count.                                                   *)
(* ------------------------------------------------------------------ *)

type mcast_mode =
  | Mcast_off  (** Default: every fan-out is per-destination unicast. *)
  | Mcast_fabric
      (** Arm the transport's multicast (NoC trees / hub loop) but leave
          every protocol's [multicast] flag off — nothing routes through
          it, so campaign outputs must stay byte-identical to [Mcast_off].
          The determinism gate diffs exactly this. *)
  | Mcast_full  (** Fabric multicast armed AND protocol fan-outs use it. *)

type batch_mode =
  | Batch_off  (** Default: one agreement instance per client request. *)
  | Batch_armed
      (** Thread a present-but-inactive batching config (max_batch 1,
          window 0) through the E2/E3 protocol configs. No batcher is
          created, so campaign outputs must stay byte-identical to
          [Batch_off] — the determinism gate diffs exactly this. *)
  | Batch_full  (** Real batching: window 50, max_batch 8, pipeline depth 4. *)

type run_config = {
  replicates : int;
  jobs : int;
  json_dir : string option;  (* None disables BENCH_<id>.json emission *)
  csv : bool;
  root_seed : int64;
  progress : bool;
  check : bool;  (* reset Resoc_check state per replicate; count failures *)
  shrink : bool;  (* ddmin failed replicates into FAIL_*.json *)
  mcast : mcast_mode;  (* NoC/hub multicast gating for E2/E3 kernels *)
  batch : batch_mode;  (* request batching + pipelining for E2/E3 kernels *)
}

let run_config =
  ref
    {
      replicates = 16;
      jobs = 1;
      json_dir = Some ".";
      csv = false;
      root_seed = 0x5EEDL;
      progress = true;
      check = false;
      shrink = false;
      mcast = Mcast_off;
      batch = Batch_off;
    }

let mcast_armed () = (!run_config).mcast <> Mcast_off
let mcast_protocols () = (!run_config).mcast = Mcast_full

let batching_spec () =
  match (!run_config).batch with
  | Batch_off -> None
  | Batch_armed ->
    Some { Resoc_repl.Types.window_cycles = 0; max_batch = 1; pipeline_depth = 1 }
  | Batch_full ->
    Some { Resoc_repl.Types.window_cycles = 50; max_batch = 8; pipeline_depth = 4 }

let batch_label () =
  match (!run_config).batch with
  | Batch_off -> "off"
  | Batch_armed -> "armed"
  | Batch_full -> "w50/b8/d4"

(* When --replay FILE targets a campaign, run_campaign re-executes just that
   one replicate under the recorded suppression mask and exits: 0 when the
   failure reproduces, 1 when it does not. *)
let replay_target : Replay.t option ref = ref None

(* Failed replicates across all checked campaigns this run (drives exit 1). *)
let total_failures = ref 0

let replay_campaign (rt : Replay.t) cells =
  let cell =
    match List.find_opt (fun (c : Campaign.cell) -> c.Campaign.id = rt.cell) cells with
    | Some c -> c
    | None ->
      Printf.eprintf "replay: campaign %s has no cell %s\n" rt.experiment rt.cell;
      exit 2
  in
  let run () = ignore (cell.Campaign.run ~seed:rt.seed) in
  match Replay.attempt ~mask:(rt.total_events, rt.keep) run with
  | None ->
    Printf.printf "replay: %s/%s seed %Ld ran clean — failure NOT reproduced\n" rt.experiment
      rt.cell rt.seed;
    exit 1
  | Some error ->
    Printf.printf "replay: %s/%s seed %Ld reproduced: %s\n" rt.experiment rt.cell rt.seed error;
    exit 0

let run_campaign ~id ~title cells =
  let rc = !run_config in
  (match !replay_target with
  | Some rt when rt.Replay.experiment = id -> replay_campaign rt cells
  | Some _ | None -> ());
  let config =
    {
      Campaign.root_seed = rc.root_seed;
      replicates = rc.replicates;
      jobs = rc.jobs;
      progress = rc.progress;
      check = rc.check;
      shrink = rc.shrink;
      fail_dir = rc.json_dir;
    }
  in
  let result = Campaign.run ~config ~id ~title cells in
  if rc.check then
    List.iter
      (fun agg -> total_failures := !total_failures + Campaign.failures agg)
      result.Campaign.cells;
  (match rc.json_dir with
  | Some dir ->
    ignore (Emit.json_file ~dir result);
    if rc.csv then ignore (Emit.csv_file ~dir result)
  | None -> ());
  result

(* ------------------------------------------------------------------ *)
(* E1: gate-level redundancy (Fig. 1 bottom layer; refs [13]-[18])     *)
(* ------------------------------------------------------------------ *)

let e1_gate_redundancy () =
  header "E1  Gate-level redundancy"
    "Claim (SI, refs [13]-[18]): replicated gates mask faults; TMR follows\n\
     R_TMR = 3R^2 - 2R^3 (helps only when R > 1/2), and the voter itself is\n\
     a fallible circuit, so trivial modules are voter-limited.";
  let rng = Rng.create 1001L in
  let module_circuit = Circuit.random_logic rng ~n_inputs:8 ~n_gates:400 in
  let tmr = Circuit.replicate_with_voter module_circuit 3 in
  let nmr5 = Circuit.replicate_with_voter module_circuit 5 in
  let trials = 4000 in
  row "%-10s %-10s %-10s %-12s %-10s %-10s\n" "p_gate" "simplex" "tmr" "tmr-analytic" "nmr5"
    "winner";
  List.iter
    (fun p_gate ->
      let simplex = Redundancy.mc_circuit_correct rng module_circuit ~trials ~p_gate in
      let tmr_ok = Redundancy.mc_circuit_correct rng tmr ~trials ~p_gate in
      let nmr5_ok = Redundancy.mc_circuit_correct rng nmr5 ~trials ~p_gate in
      let analytic = Redundancy.r_tmr simplex in
      let winner =
        if nmr5_ok >= tmr_ok && nmr5_ok >= simplex then "nmr5"
        else if tmr_ok >= simplex then "tmr"
        else "simplex"
      in
      row "%-10.4f %-10.4f %-10.4f %-12.4f %-10.4f %-10s\n" p_gate simplex tmr_ok analytic nmr5_ok
        winner)
    [ 0.0001; 0.0005; 0.001; 0.002; 0.005; 0.01; 0.02 ];
  (* Voter-limited regime: a near-trivial module. *)
  let buf = Circuit.build ~n_inputs:1 [| Circuit.Input 0; Circuit.Buf 0 |] ~outputs:[| 1 |] in
  let tmr_buf = Circuit.replicate_with_voter buf 3 in
  let p_gate = 0.01 in
  let simplex = Redundancy.mc_circuit_correct rng buf ~trials:20000 ~p_gate in
  let redundant = Redundancy.mc_circuit_correct rng tmr_buf ~trials:20000 ~p_gate in
  row "\nvoter-limited check (1-gate module, p=%.2f): simplex %.4f vs tmr %.4f -> %s\n" p_gate
    simplex redundant
    (if redundant < simplex then "TMR HURTS (as predicted)" else "tmr wins");
  row "crossover check: r_tmr(0.3)=%.3f < 0.3; r_tmr(0.9)=%.3f > 0.9\n" (Redundancy.r_tmr 0.3)
    (Redundancy.r_tmr 0.9);
  (* One level below the gates: SiNW nanowire arrays (SI, ref [19]). *)
  row "\nSiNW transistor redundancy (ref [19]): yield and lifetime vs wires\n";
  row "%-12s %-18s %-14s\n" "wires(>=1)" "yield@5pc-defect" "MTTF factor";
  List.iter
    (fun wires ->
      let t = Resoc_hw.Sinw.make ~wires ~threshold:1 in
      row "%-12d %-18.5f %-14.3f\n" wires
        (Resoc_hw.Sinw.p_functional t ~p_wire_defect:0.05)
        (Resoc_hw.Sinw.mttf_factor t))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E2: ECC on the USIG counter register (SIII)                         *)
(* ------------------------------------------------------------------ *)

let run_minbft_under_seu ~protection ~seu_rate ~seed =
  let engine = Engine.create ~seed () in
  let config =
    {
      Minbft.default_config with
      f = 1;
      n_clients = 2;
      usig_protection = protection;
      multicast = mcast_protocols ();
      batching = batching_spec ();
    }
  in
  let n = Minbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 2) ~multicast:(mcast_armed ()) () in
  let sys = Minbft.start engine fabric config () in
  let registers =
    Array.init n (fun replica -> Usig.counter_register (Minbft.usig sys ~replica))
  in
  let seu =
    Seu.start engine (Rng.create (Int64.add seed 7L)) ~rate_per_bit_cycle:seu_rate registers
  in
  (* Deployed SECDED is always paired with background scrubbing so single
     flips cannot accumulate into uncorrectable pairs. *)
  Engine.every engine ~period:250 (fun () -> Array.iter Register.scrub registers);
  let horizon = 250_000 in
  Generator.periodic engine ~period:2_000 ~until:horizon ~n_clients:2
    ~submit:(fun ~client ~payload -> Minbft.submit sys ~client ~payload)
    ();
  Engine.run ~until:horizon engine;
  let s = Minbft.stats sys in
  let avail =
    if s.Stats.submitted = 0 then 1.0
    else float_of_int s.Stats.completed /. float_of_int s.Stats.submitted
  in
  ( avail,
    s.Stats.view_changes,
    Minbft.cert_gap_drops sys,
    Seu.injected seu,
    Histogram.percentile s.Stats.latency 99.0 )

let e2_usig_ecc () =
  header "E2  USIG counter protection: plain vs parity vs SECDED"
    "Claim (SIII): a bitflip in a plain USIG counter register is catastrophic\n\
     for consensus (silent desync -> stalls/view changes); ECC registers\n\
     tolerate it at a known extra circuit cost. Per-replicate means ±95% CI.";
  let protections =
    [ ("plain", Register.Plain); ("parity", Register.Parity); ("secded", Register.Secded) ]
  in
  let specs =
    List.concat_map
      (fun seu_rate ->
        List.map (fun (label, protection) -> (seu_rate, label, protection)) protections)
      [ 0.0; 1.0e-7; 1.0e-6; 4.0e-6 ]
  in
  let cells =
    List.map
      (fun (seu_rate, label, protection) ->
        Campaign.cell
          ~params:
            [ ("seu_rate", Printf.sprintf "%.0e" seu_rate); ("protection", label) ]
          (Printf.sprintf "%.0e/%s" seu_rate label)
          (fun ~seed ->
            let avail, vcs, gaps, upsets, p99 =
              run_minbft_under_seu ~protection ~seu_rate ~seed
            in
            [
              ("avail", avail);
              ("view_changes", float_of_int vcs);
              ("gaps", float_of_int gaps);
              ("upsets", float_of_int upsets);
              ("lat_p99", p99);
            ]))
      specs
  in
  let result = run_campaign ~id:"e2" ~title:"USIG counter protection under SEUs" cells in
  row "%-10s %-8s %-6s %-6s | %-15s %-12s %-8s %-8s %-8s\n" "SEU/bit/cy" "protect" "bits"
    "gates" "avail (95% CI)" "viewchg" "gaps" "upsets" "p99-max";
  List.iter2
    (fun (seu_rate, label, protection) agg ->
      let avail = Campaign.metric agg "avail" in
      let vcs = Campaign.metric agg "view_changes" in
      let gaps = Campaign.metric agg "gaps" in
      let ups = Campaign.metric agg "upsets" in
      let p99 = Campaign.metric agg "lat_p99" in
      row "%-10.0e %-8s %-6d %-6d | %.3f ±%.3f    %-12s %-8.0f %-8.0f %.0f\n" seu_rate label
        (Register.stored_bits (Register.create protection 0L))
        (Register.gate_cost protection)
        avail.Cstats.mean avail.Cstats.ci95 (Cstats.pp_mean_ci vcs) gaps.Cstats.mean
        ups.Cstats.mean p99.Cstats.max)
    specs result.Campaign.cells

(* ------------------------------------------------------------------ *)
(* E3: PBFT (3f+1) vs MinBFT (2f+1) on the NoC (SI, SII.A; refs [40]-[42]) *)
(* ------------------------------------------------------------------ *)

let run_group_workload kind ~f ~requests ~mesh =
  let w, h = mesh in
  let soc =
    Soc.create
      {
        Soc.default_config with
        mesh_width = w;
        mesh_height = h;
        seed = 77L;
        noc = { Soc.default_config.noc with Resoc_noc.Network.multicast = mcast_armed () };
      }
  in
  let spec =
    {
      Group.default_spec with
      kind;
      f;
      n_clients = 2;
      multicast = mcast_protocols ();
      batching = batching_spec ();
    }
  in
  let group = Group.build (Soc.engine soc) (Group.On_soc soc) spec in
  Generator.burst ~n_per_client:(requests / 2) ~n_clients:2 ~submit:group.Group.submit;
  Engine.run ~until:2_000_000 (Soc.engine soc);
  let s = group.Group.stats () in
  (group, s, Soc.noc_messages soc, Soc.noc_bytes soc)

let e3_pbft_vs_minbft () =
  header "E3  Hybrid-assisted BFT: 2f+1 (MinBFT/USIG) vs 3f+1 (PBFT)"
    "Claim (SI/SII.A, refs [40]-[42]): a trusted hybrid cuts replicas from\n\
     3f+1 to 2f+1 and removes one agreement phase: fewer cores, fewer\n\
     messages, lower latency for the same f.";
  row "%-3s %-9s %-9s %-10s %-10s %-10s %-10s %-10s %-10s\n" "f" "protocol" "replicas"
    "completed" "msgs/req" "bytes/req" "lat-mean" "lat-p99" "batch";
  List.iter
    (fun f ->
      List.iter
        (fun kind ->
          let requests = 20 in
          let mesh = if f >= 3 then (5, 4) else (4, 4) in
          let group, s, msgs, bytes = run_group_workload kind ~f ~requests ~mesh in
          let per_req v = if s.Stats.completed = 0 then 0.0 else float_of_int v /. float_of_int s.Stats.completed in
          row "%-3d %-9s %-9d %-10d %-10.1f %-10.1f %-10.0f %-10.0f %-10s\n" f
            group.Group.protocol group.Group.n_replicas s.Stats.completed (per_req msgs)
            (per_req bytes)
            (Histogram.mean s.Stats.latency)
            (Histogram.percentile s.Stats.latency 99.0)
            (batch_label ()))
        [ `Pbft; `Minbft; `A2m_bft ])
    [ 1; 2; 3 ];
  (* Equivocation contrast: the structural benefit of the USIG. *)
  let equivocation kind =
    let engine = Engine.create ~seed:5L () in
    match kind with
    | `Pbft ->
      let config = { Resoc_repl.Pbft.default_config with f = 1; n_clients = 1 } in
      let fabric = Transport.hub engine ~n:5 () in
      let behaviors = Array.make 4 Behavior.honest in
      behaviors.(0) <- Behavior.byzantine Behavior.Equivocate;
      let sys = Resoc_repl.Pbft.start engine fabric config ~behaviors () in
      for i = 1 to 10 do
        Resoc_repl.Pbft.submit sys ~client:0 ~payload:(Int64.of_int i)
      done;
      Engine.run ~until:1_000_000 engine;
      let s = Resoc_repl.Pbft.stats sys in
      (s.Stats.completed, s.Stats.view_changes)
    | `Minbft ->
      let config = { Minbft.default_config with f = 1; n_clients = 1 } in
      let fabric = Transport.hub engine ~n:4 () in
      let behaviors = Array.make 3 Behavior.honest in
      behaviors.(0) <- Behavior.byzantine Behavior.Equivocate;
      let sys = Minbft.start engine fabric config ~behaviors () in
      for i = 1 to 10 do
        Minbft.submit sys ~client:0 ~payload:(Int64.of_int i)
      done;
      Engine.run ~until:1_000_000 engine;
      let s = Minbft.stats sys in
      (s.Stats.completed, s.Stats.view_changes)
  in
  let p_done, p_vc = equivocation `Pbft in
  let m_done, m_vc = equivocation `Minbft in
  row "\nequivocating primary: pbft completed %d with %d view changes; minbft completed %d with %d\n"
    p_done p_vc m_done m_vc;
  row "(USIG makes equivocation structurally impossible: no view change needed)\n"

(* ------------------------------------------------------------------ *)
(* E4: passive vs active replication (SII.A)                           *)
(* ------------------------------------------------------------------ *)

let e4_passive_vs_active () =
  header "E4  Passive vs active replication under a primary crash"
    "Claim (SII.A): passive replication is cheap (one warm backup, one\n\
     update per op) but recovery is slow and client-visible; active\n\
     replication masks the fault seamlessly at higher message cost.";
  let horizon = 300_000 in
  let crash_t = 50_000 in
  row "%-15s %-9s %-10s %-10s %-8s %-10s %-10s %-10s %-10s\n" "protocol" "replicas" "completed"
    "submitted" "retx" "failovers" "msgs/req" "lat-p99" "lat-max";
  List.iter
    (fun kind ->
      let engine = Engine.create ~seed:42L () in
      let spec = { Group.default_spec with kind; f = 1; n_clients = 1; request_timeout = 3_000 } in
      let n = Group.n_replicas_of spec in
      let behaviors = Array.make n Behavior.honest in
      behaviors.(0) <- Behavior.crash_at crash_t;
      let spec = { spec with Group.behaviors = Some behaviors } in
      let group = Group.build engine (Group.Hub { latency = 5 }) spec in
      Generator.periodic engine ~period:1_000 ~until:(horizon - 50_000) ~n_clients:1
        ~submit:group.Group.submit ();
      Engine.run ~until:horizon engine;
      let s = group.Group.stats () in
      let msgs_per_req =
        if s.Stats.completed = 0 then 0.0
        else float_of_int (group.Group.messages ()) /. float_of_int s.Stats.completed
      in
      row "%-15s %-9d %-10d %-10d %-8d %-10d %-10.1f %-10.0f %-10.0f\n" group.Group.protocol
        group.Group.n_replicas s.Stats.completed s.Stats.submitted s.Stats.retransmissions
        s.Stats.view_changes msgs_per_req
        (Histogram.percentile s.Stats.latency 99.0)
        (Histogram.max s.Stats.latency))
    [ `Primary_backup; `Paxos; `Minbft; `Pbft ]

(* ------------------------------------------------------------------ *)
(* E5: diversity vs common-mode failures (SII.B)                       *)
(* ------------------------------------------------------------------ *)

let e5_diversity () =
  header "E5  Diversity vs common-mode vulnerabilities"
    "Claim (SII.B): active replication only helps while replicas fail\n\
     independently; one shared vulnerability defeats a monoculture group.\n\
     P(single vulnerability event defeats the f=1, n=4 group), mean ±95% CI:";
  let strategies =
    [
      ("monoculture", 4, Diversity.Same);
      ("2-variants", 2, Diversity.Round_robin);
      ("4-variants", 4, Diversity.Max_diversity);
      ("8-variants", 8, Diversity.Max_diversity);
    ]
  in
  let qs = [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.5 ] in
  let trials = 4_000 in
  let specs = List.concat_map (fun q -> List.map (fun s -> (q, s)) strategies) qs in
  let cells =
    List.map
      (fun (q, (name, variants, strategy)) ->
        Campaign.cell
          ~params:[ ("q", Printf.sprintf "%.2f" q); ("strategy", name) ]
          (Printf.sprintf "q%.2f/%s" q name)
          (fun ~seed ->
            let rng = Rng.create seed in
            let pool = Common_mode.create ~n_variants:variants ~shared_prob:q in
            let d = Diversity.create ~pool strategy in
            let assignment = Diversity.initial_assignment d ~n_replicas:4 in
            [
              ( "p_compromise",
                Common_mode.p_group_compromise pool rng ~assignment ~f:1 ~trials );
            ]))
      specs
  in
  let result = run_campaign ~id:"e5" ~title:"Diversity vs common-mode vulnerabilities" cells in
  let tagged = List.combine specs result.Campaign.cells in
  row "%-8s %-18s %-18s %-18s %-18s\n" "q" "monoculture" "2 variants" "4 variants" "8 variants";
  List.iter
    (fun q ->
      let col name =
        let _, agg =
          List.find (fun ((q', (name', _, _)), _) -> q' = q && name' = name) tagged
        in
        Cstats.pp_mean_ci ~decimals:4 (Campaign.metric agg "p_compromise")
      in
      row "%-8.2f %-18s %-18s %-18s %-18s\n" q (col "monoculture") (col "2-variants")
        (col "4-variants") (col "8-variants"))
    qs

(* ------------------------------------------------------------------ *)
(* E6: rejuvenation vs APTs (SII.C; ref [51])                          *)
(* ------------------------------------------------------------------ *)

let e6_rejuvenation () =
  header "E6  Rejuvenation policies under an APT campaign"
    "Claim (SII.C, ref [51]): a fixed f erodes under persistent attack;\n\
     periodic rejuvenation restores it, DIVERSE rejuvenation invalidates\n\
     the adversary's exploit, and spatial relocation escapes fabric\n\
     backdoors. Time to safety loss (>f compromised), 600k-cycle horizon:";
  let horizon = 600_000 in
  let apt =
    {
      Resilient_system.mean_exploit_cycles = 40_000.0;
      exposure = 6_000;
      backdoor_delay = 80_000;
      detection_prob = 0.0;
      detection_delay = 1_000;
    }
  in
  let base seed =
    {
      Resilient_system.default_config with
      soc = { Soc.default_config with seed };
      group = { Group.default_spec with n_clients = 1 };
      apt = Some apt;
      n_variants = 8;
      shared_vuln_prob = 0.0;
      trojaned_frames = [ (0, 0) ];
      rejuvenation = None;
      diversity = Diversity.Same;
      relocate_on_rejuvenation = false;
    }
  in
  (* slow: per-replica cadence (3 x 4k = 12k) exceeds the 6k exposure window
     -> exploits land and dwell; fast: cadence (3 x 1.8k = 5.4k) beats the
     exposure window -> the exploit race is won outright. *)
  let slow = Some { Rejuvenation.period = 4_000; downtime = 300 } in
  let fast = Some { Rejuvenation.period = 1_800; downtime = 300 } in
  let variants =
    [
      ("none", (fun c -> c));
      ("slow/same", fun c -> { c with Resilient_system.rejuvenation = slow });
      ( "slow/diverse",
        fun c ->
          { c with Resilient_system.rejuvenation = slow; diversity = Diversity.Max_diversity } );
      ("fast/same", fun c -> { c with Resilient_system.rejuvenation = fast });
      ( "fast/diverse",
        fun c ->
          { c with Resilient_system.rejuvenation = fast; diversity = Diversity.Max_diversity } );
      ( "fast/div+relocate",
        fun c ->
          {
            c with
            Resilient_system.rejuvenation = fast;
            diversity = Diversity.Max_diversity;
            relocate_on_rejuvenation = true;
          } );
    ]
  in
  let cells =
    List.map
      (fun (name, tweak) ->
        Campaign.cell ~params:[ ("policy", name) ] name (fun ~seed ->
            let sys = Resilient_system.create (tweak (base seed)) in
            let r = Resilient_system.run sys ~horizon ~workload_period:5_000 in
            let metrics =
              [
                ( "survived",
                  match r.Resilient_system.failed_at with None -> 1.0 | Some _ -> 0.0 );
                ("compromises", float_of_int r.Resilient_system.compromises);
                ("peak_simult", float_of_int r.Resilient_system.compromised_peak);
                ("rejuvenations", float_of_int r.Resilient_system.rejuvenations);
              ]
            in
            match r.Resilient_system.failed_at with
            | Some t -> metrics @ [ ("failed_at", float_of_int t) ]
            | None -> metrics))
      variants
  in
  let result = run_campaign ~id:"e6" ~title:"Rejuvenation policies under an APT campaign" cells in
  row "%-18s %-18s %-10s %-15s %-12s %-14s\n" "policy" "survival (95% CI)" "fell@mean"
    "compromises" "peak-simult" "rejuvenations";
  List.iter
    (fun agg ->
      let surv = Campaign.fraction agg "survived" in
      let fell = Campaign.metric agg "failed_at" in
      let comps = Campaign.metric agg "compromises" in
      let peak = Campaign.metric agg "peak_simult" in
      let rejs = Campaign.metric agg "rejuvenations" in
      let fell_s = if fell.Cstats.n = 0 then "-" else Printf.sprintf "%.0f" fell.Cstats.mean in
      row "%-18s %-18s %-10s %-15s %-12.0f %-14s\n" agg.Campaign.cell_id
        (Cstats.pp_fraction surv) fell_s (Cstats.pp_mean_ci comps) peak.Cstats.max
        (Cstats.pp_mean_ci rejs))
    result.Campaign.cells

(* ------------------------------------------------------------------ *)
(* E7: threat-adaptive f (SII.D; refs [52]-[54])                       *)
(* ------------------------------------------------------------------ *)

(* Abstract compromise-level simulation: attacks arrive as a Poisson
   process whose rate surges mid-run; each lands on a random clean replica.
   Detected compromises (p=0.8) are cleaned by reactive rejuvenation after
   a delay. The system fails when more than the *current* f replicas are
   compromised at once. The adaptive controller grows/shrinks the group. *)
let e7_run ~adaptive ~static_f ~seed =
  let engine = Engine.create ~seed () in
  let rng = Rng.split (Engine.rng engine) in
  let horizon = 600_000 in
  let surge_start = 200_000 and surge_end = 400_000 in
  let ramp = 50_000 in
  let base_rate = 1.0 /. 60_000.0 and surge_rate = 1.0 /. 6_000.0 in
  let f = ref static_f in
  let n () = (2 * !f) + 1 in
  let max_n = 9 in
  let compromised = Array.make max_n false in
  let online = Array.make max_n true in
  let failed_at = ref None in
  let replica_cycles = ref 0 in
  let threat = Threat.create engine ~half_life:20_000 in
  let check_failure () =
    let c = ref 0 in
    for i = 0 to n () - 1 do
      if compromised.(i) then incr c
    done;
    if !c > !f && !failed_at = None then failed_at := Some (Engine.now engine)
  in
  let clean replica =
    compromised.(replica) <- false;
    online.(replica) <- false;
    ignore (Engine.schedule engine ~delay:1_000 (fun () -> online.(replica) <- true))
  in
  let rec attack () =
    let now = Engine.now engine in
    let rate =
      (* Campaigns escalate: the surge ramps up over [ramp] cycles. *)
      if now < surge_start || now >= surge_end then base_rate
      else if now < surge_start + ramp then
        base_rate
        +. ((surge_rate -. base_rate) *. float_of_int (now - surge_start) /. float_of_int ramp)
      else surge_rate
    in
    let delay = max 1 (int_of_float (Rng.exponential rng ~mean:(1.0 /. rate))) in
    ignore
      (Engine.schedule engine ~delay (fun () ->
           if Engine.now engine < horizon then begin
             let target = Rng.int rng (n ()) in
             if online.(target) && not compromised.(target) then begin
               compromised.(target) <- true;
               check_failure ();
               (* detection *)
               if Rng.bernoulli rng 0.8 then
                 ignore
                   (Engine.schedule engine ~delay:2_000 (fun () ->
                        Threat.report threat ();
                        clean target))
             end;
             attack ()
           end))
  in
  attack ();
  (* Proactive staggered rejuvenation sweeps one replica every 10k cycles,
     bounding the residence time of UNDETECTED compromises. *)
  let sweep = ref 0 in
  Engine.every engine ~period:10_000 (fun () ->
      let target = !sweep mod n () in
      sweep := !sweep + 1;
      if online.(target) then clean target);
  if adaptive then begin
    let policy =
      {
        Adaptation.f_min = 1;
        f_max = 4;
        raise_threshold = 1.2;
        lower_threshold = 0.2;
        eval_period = 1_000;
        cooldown = 4_000;
      }
    in
    ignore
      (Adaptation.start engine policy threat
         { Adaptation.current_f = (fun () -> !f); scale_to = (fun f' -> f := f') })
  end;
  Engine.every engine ~period:1_000 (fun () ->
      replica_cycles := !replica_cycles + (n () * 1_000);
      check_failure ());
  Engine.run ~until:horizon engine;
  (!failed_at, !replica_cycles, !f)

let e7_adaptation () =
  header "E7  Threat-adaptive fault budget"
    "Claim (SII.D, refs [52]-[54]): scaling f with the observed threat\n\
     survives surges that defeat a static small group, at a fraction of the\n\
     cost of constant over-provisioning. Attack surge in [200k,400k):";
  let cells =
    List.map
      (fun (name, adaptive, static_f) ->
        Campaign.cell ~params:[ ("configuration", name) ] name (fun ~seed ->
            let failed, rc, f_end = e7_run ~adaptive ~static_f ~seed in
            let metrics =
              [
                ("survived", match failed with None -> 1.0 | Some _ -> 0.0);
                ("replica_cycles_m", float_of_int rc /. 1.0e6);
                ("final_f", float_of_int f_end);
              ]
            in
            match failed with
            | Some t -> metrics @ [ ("failed_at", float_of_int t) ]
            | None -> metrics))
      [ ("static f=1", false, 1); ("static f=4", false, 4); ("adaptive 1..4", true, 1) ]
  in
  let result = run_campaign ~id:"e7" ~title:"Threat-adaptive fault budget" cells in
  row "%-14s %-18s %-20s %-10s\n" "configuration" "survival (95% CI)" "replica-cycles(M)"
    "final f";
  List.iter
    (fun agg ->
      let surv = Campaign.fraction agg "survived" in
      let cycles = Campaign.metric agg "replica_cycles_m" in
      let final_f = Campaign.metric agg "final_f" in
      row "%-14s %-18s %-20s %-10.1f\n" agg.Campaign.cell_id (Cstats.pp_fraction surv)
        (Cstats.pp_mean_ci cycles) final_f.Cstats.mean)
    result.Campaign.cells

(* ------------------------------------------------------------------ *)
(* E8: consensual reconfiguration (SII.E; ref [55])                    *)
(* ------------------------------------------------------------------ *)

let e8_reconfig_governance () =
  header "E8  Resilient reconfiguration: voted vs single-kernel ICAP control"
    "Claim (SII.E, ref [55]): privilege change must be consensual — a\n\
     quorum of kernel replicas validates each reconfiguration; a single\n\
     (compromisable) kernel is a single point of failure. 20 legitimate +\n\
     20 hijack attempts:";
  let run ~n_kernels ~threshold ~malicious_kernels =
    let engine = Engine.create ~seed:9L () in
    let grid = Grid.create ~width:16 ~height:16 in
    let icap = Icap.create engine grid () in
    Icap.grant icap ~principal:1000 ~region:(Region.make ~x:0 ~y:0 ~w:16 ~h:16);
    let slots =
      Array.init 8 (fun i ->
          match
            Grid.place grid
              ~region:(Region.make ~x:(2 * i) ~y:0 ~w:2 ~h:2)
              ~variant:0 ~owner:i
          with
          | Ok id -> id
          | Error e -> failwith e)
    in
    let malicious = Array.init n_kernels (fun i -> i < malicious_kernels) in
    let gov =
      Governance.create engine icap ~n_kernels ~threshold ~malicious ~governance_principal:1000 ()
    in
    (* Sequential campaign: each proposal waits for the previous decision so
       slot ids stay current through successful reconfigurations. *)
    let rec campaign i =
      if i < 20 then begin
        let idx = i mod 8 in
        Governance.propose gov ~proposer:(i mod n_kernels)
          {
            Governance.slot = slots.(idx);
            bitstream = Bitstream.make ~variant:1 ~w:2 ~h:2;
            requestor = idx;
          }
          (fun decision ->
            (match decision with
             | Governance.Executed id -> slots.(idx) <- id
             | Governance.Blocked | Governance.Icap_rejected _ -> ());
            Governance.propose gov ~proposer:(i mod n_kernels)
              {
                Governance.slot = slots.(idx);
                bitstream = Bitstream.make ~variant:6 ~w:2 ~h:2;
                requestor = 99;
              }
              (fun decision ->
                (match decision with
                 | Governance.Executed id -> slots.(idx) <- id
                 | Governance.Blocked | Governance.Icap_rejected _ -> ());
                campaign (i + 1)))
      end
    in
    campaign 0;
    Engine.run engine;
    ( Governance.executed_legitimate gov,
      Governance.executed_rogue gov,
      Governance.blocked_rogue gov,
      Governance.blocked_legitimate gov )
  in
  row "%-26s %-12s %-12s %-12s %-12s\n" "governance" "legit-exec" "ROGUE-exec" "rogue-block"
    "legit-block";
  List.iter
    (fun (name, n_kernels, threshold, malicious_kernels) ->
      let le, re, rb, lb = run ~n_kernels ~threshold ~malicious_kernels in
      row "%-26s %-12d %-12d %-12d %-12d\n" name le re rb lb)
    [
      ("single kernel (honest)", 1, 1, 0);
      ("single kernel COMPROMISED", 1, 1, 1);
      ("4 kernels, thresh 3, 1 bad", 4, 3, 1);
      ("4 kernels, thresh 3, 3 bad", 4, 3, 3);
    ]

(* ------------------------------------------------------------------ *)
(* E9: hybridization middle ground (SIII)                              *)
(* ------------------------------------------------------------------ *)

let e9_hybrid_complexity () =
  header "E9  The hybridization middle ground"
    "Claim (SIII): a special-purpose trusted circuit beats a minimal\n\
     software core only while the functionality's complexity is small;\n\
     past the crossover, the software hybrid is more dependable.";
  let p = Complexity.default in
  row "%-12s %-14s %-14s %-14s %-8s\n" "complexity" "circuit-gates" "P(circ fail)" "P(sw fail)"
    "winner";
  List.iter
    (fun c ->
      let pc = Complexity.p_fail_circuit p ~complexity:c in
      let ps = Complexity.p_fail_software_hybrid p ~complexity:c in
      row "%-12d %-14d %-14.6f %-14.6f %-8s\n" c
        (Complexity.circuit_gates p ~complexity:c)
        pc ps
        (if pc <= ps then "circuit" else "software"))
    [ 0; 1; 2; 4; 8; 12; 16; 24; 32; 48; 64 ];
  (match Complexity.crossover p ~max_complexity:1000 with
   | Some c -> row "\ncrossover at complexity %d (~%d gates)\n" c (Complexity.circuit_gates p ~complexity:c)
   | None -> row "\nno crossover below complexity 1000\n");
  row "hybrid positioning: USIG ~ complexity 1-2 (circuit side), TrInc ~ 1,\n";
  row "A2M log ~ 8-12 (approaching the bound) - matching the paper's argument\n"

(* ------------------------------------------------------------------ *)
(* F1: the layered stack composes (Fig. 1)                             *)
(* ------------------------------------------------------------------ *)

let f1_layered_stack () =
  header "F1  Fig. 1 cumulative layering"
    "Claim (Fig. 1 / SI): each layer of the stack contributes; composing\n\
     replication, hybrids, diversity and rejuvenation yields a system that\n\
     survives a threat mix (crash + SEU + APT + fabric trojan) that defeats\n\
     every prefix of the stack.";
  let horizon = 500_000 in
  let apt =
    {
      Resilient_system.mean_exploit_cycles = 60_000.0;
      exposure = 8_000;
      backdoor_delay = 90_000;
      detection_prob = 0.0;
      detection_delay = 1_000;
    }
  in
  let make_group kind f =
    { Group.default_spec with kind; f; n_clients = 1 }
  in
  let base seed =
    {
      Resilient_system.default_config with
      soc = { Soc.default_config with seed };
      apt = Some apt;
      n_variants = 6;
      shared_vuln_prob = 0.0;
      trojaned_frames = [ (0, 0) ];
      rejuvenation = None;
      diversity = Diversity.Same;
      relocate_on_rejuvenation = false;
    }
  in
  (* Per-replica cadence (3 x period) stays below the APT's exposure window,
     so proactive restarts win the race the paper describes. *)
  let policy = Some { Rejuvenation.period = 2_500; downtime = 300 } in
  let layers =
    [
      ( "L0 single core",
        fun base -> { base with Resilient_system.group = make_group `Primary_backup 0 } );
      ( "L1 +active replication",
        fun base -> { base with Resilient_system.group = make_group `Minbft 1 } );
      ( "L2 +diversity",
        fun base ->
          {
            base with
            Resilient_system.group = make_group `Minbft 1;
            diversity = Diversity.Max_diversity;
          } );
      ( "L3 +diverse rejuvenation",
        fun base ->
          {
            base with
            Resilient_system.group = make_group `Minbft 1;
            diversity = Diversity.Max_diversity;
            rejuvenation = policy;
          } );
      ( "L4 +spatial relocation",
        fun base ->
          {
            base with
            Resilient_system.group = make_group `Minbft 1;
            diversity = Diversity.Max_diversity;
            rejuvenation = policy;
            relocate_on_rejuvenation = true;
          } );
    ]
  in
  let cells =
    List.map
      (fun (name, layer) ->
        Campaign.cell ~params:[ ("stack", name) ] name (fun ~seed ->
            let sys = Resilient_system.create (layer (base seed)) in
            let r = Resilient_system.run sys ~horizon ~workload_period:4_000 in
            let metrics =
              [
                ( "survived",
                  match r.Resilient_system.failed_at with None -> 1.0 | Some _ -> 0.0 );
                ("compromises", float_of_int r.Resilient_system.compromises);
                ("peak_simult", float_of_int r.Resilient_system.compromised_peak);
                ("availability", r.Resilient_system.availability);
              ]
            in
            match r.Resilient_system.failed_at with
            | Some t -> metrics @ [ ("failed_at", float_of_int t) ]
            | None -> metrics))
      layers
  in
  let result = run_campaign ~id:"f1" ~title:"Fig. 1 cumulative layering" cells in
  row "%-26s %-18s %-10s %-15s %-12s %-16s\n" "stack prefix" "survival (95% CI)" "fell@mean"
    "compromises" "peak-simult" "availability";
  List.iter
    (fun agg ->
      let surv = Campaign.fraction agg "survived" in
      let fell = Campaign.metric agg "failed_at" in
      let comps = Campaign.metric agg "compromises" in
      let peak = Campaign.metric agg "peak_simult" in
      let avail = Campaign.metric agg "availability" in
      let fell_s = if fell.Cstats.n = 0 then "-" else Printf.sprintf "%.0f" fell.Cstats.mean in
      row "%-26s %-18s %-10s %-15s %-12.0f %.3f ±%.3f\n" agg.Campaign.cell_id
        (Cstats.pp_fraction surv) fell_s (Cstats.pp_mean_ci comps) peak.Cstats.max
        avail.Cstats.mean avail.Cstats.ci95)
    result.Campaign.cells

(* ------------------------------------------------------------------ *)
(* Ablations: the other mechanisms the paper's text names               *)
(* ------------------------------------------------------------------ *)

let a1_razor () =
  header "A1  Razor-style timing speculation (SII.A, ref [35])"
    "The paper cites Razor as passive replication at transistor level:\n\
     shadow latches detect timing violations and re-execute, converting\n\
     silent corruption into a small, observable cost. Voltage sweep, 5-stage\n\
     pipeline, 20k ops:";
  let rng = Resoc_des.Rng.create 77L in
  let c = Resoc_hw.Razor.default_config in
  row "%-6s %-12s | %-10s %-10s %-12s | %-10s %-12s\n" "vdd" "viol/stage" "razor-tput"
    "razor-e/op" "razor-silent" "base-tput" "base-silent";
  List.iter
    (fun vdd ->
      let razor = Resoc_hw.Razor.run rng c ~vdd ~razor:true ~ops:20_000 in
      let base = Resoc_hw.Razor.run rng c ~vdd ~razor:false ~ops:20_000 in
      row "%-6.2f %-12.5f | %-10.3f %-10.3f %-12d | %-10.3f %-12d\n" vdd
        (Resoc_hw.Razor.violation_rate c ~vdd)
        (Resoc_hw.Razor.throughput razor)
        (Resoc_hw.Razor.energy_per_op razor)
        razor.Resoc_hw.Razor.silent_errors
        (Resoc_hw.Razor.throughput base)
        base.Resoc_hw.Razor.silent_errors)
    [ 1.0; 0.97; 0.95; 0.93; 0.91; 0.89; 0.85 ];
  row "\nRazor holds silent errors at zero while under-volting cuts energy/op;\n";
  row "the un-shadowed baseline saves the same energy but corrupts silently.\n"

let a2_vendor_stack () =
  header "A2  3D multi-vendor stacking vs supply-chain distribution attacks (SI)"
    "Multi-vendor layers avoid vendor lock-in and backdoors (SI) — but only\n\
     with redundancy: a chain of single-sourced layers grows the attack\n\
     surface. P(undetected backdoored chip), 4-function stack:";
  row "%-8s %-14s %-14s %-16s %-16s\n" "p_mal" "single-vendor" "4-layer chain" "3-vote/function"
    "5-vote/function";
  List.iter
    (fun p_mal ->
      row "%-8.3f %-14.5f %-14.5f %-16.6f %-16.7f\n" p_mal
        (Resoc_hw.Stack3d.p_single_vendor ~p_mal)
        (Resoc_hw.Stack3d.p_chain ~p_mal ~layers:4)
        (Resoc_hw.Stack3d.p_chain_voted ~p_mal ~layers:4 ~m:3)
        (Resoc_hw.Stack3d.p_chain_voted ~p_mal ~layers:4 ~m:5))
    [ 0.01; 0.02; 0.05; 0.1; 0.2 ]

let a3_noc_routing () =
  header "A3  Fault-tolerant NoC routing: XY vs XY-with-YX-fallback (SI)"
    "Fig. 1's interconnect layer: deterministic XY routing drops every\n\
     message whose unique path crosses a dead link; a YX escape path\n\
     restores most of them. Delivery rate over 2000 random unicasts on an\n\
     8x8 mesh vs number of failed links:";
  let deliver ~routing ~failed_links ~seed =
    let engine = Engine.create ~seed () in
    let rng = Rng.split (Engine.rng engine) in
    let mesh = Resoc_noc.Mesh.create ~width:8 ~height:8 in
    (* Fail random distinct directed links. *)
    let killed = ref 0 in
    while !killed < failed_links do
      let src = Rng.int rng 64 in
      match Resoc_noc.Mesh.neighbors mesh src with
      | [] -> ()
      | neighbors ->
        let dst = List.nth neighbors (Rng.int rng (List.length neighbors)) in
        let link = { Resoc_noc.Mesh.src; dst } in
        if Resoc_noc.Mesh.link_up mesh link then begin
          Resoc_noc.Mesh.fail_link mesh link;
          incr killed
        end
    done;
    let config = { Resoc_noc.Network.default_config with routing } in
    let net = Resoc_noc.Network.create engine mesh config in
    for node = 0 to 63 do
      Resoc_noc.Network.attach net ~node (fun ~src:_ _ -> ())
    done;
    for _ = 1 to 2000 do
      let src = Rng.int rng 64 in
      let dst = Rng.int rng 64 in
      Resoc_noc.Network.send net ~src ~dst ~bytes_:16 ()
    done;
    Engine.run engine;
    float_of_int (Resoc_noc.Network.delivered net) /. 2000.0
  in
  let links = [ 0; 2; 4; 8; 16; 32 ] in
  let routings =
    [ ("xy", Resoc_noc.Network.Xy); ("xy+yx", Resoc_noc.Network.Xy_with_yx_fallback) ]
  in
  let specs = List.concat_map (fun fl -> List.map (fun r -> (fl, r)) routings) links in
  let cells =
    List.map
      (fun (failed_links, (rname, routing)) ->
        Campaign.cell
          ~params:[ ("failed_links", string_of_int failed_links); ("routing", rname) ]
          (Printf.sprintf "%d/%s" failed_links rname)
          (fun ~seed -> [ ("delivery", deliver ~routing ~failed_links ~seed) ]))
      specs
  in
  let result = run_campaign ~id:"a3" ~title:"Fault-tolerant NoC routing" cells in
  let tagged = List.combine specs result.Campaign.cells in
  row "%-14s %-20s %-20s\n" "failed links" "xy-only (95% CI)" "xy+yx-fallback (95% CI)";
  List.iter
    (fun failed_links ->
      let col rname =
        let _, agg =
          List.find
            (fun ((fl, (rname', _)), _) -> fl = failed_links && rname' = rname)
            tagged
        in
        Cstats.pp_mean_ci ~decimals:3 (Campaign.metric agg "delivery")
      in
      row "%-14d %-20s %-20s\n" failed_links (col "xy") (col "xy+yx"))
    links

let a4_lockstep () =
  header "A4  Lockstep core coupling (SI)"
    "Lockstep pairs detect faults by comparison and re-execute; lockstep\n\
     triples mask them outright. Per-step fault probability sweep, 20k\n\
     steps (silent = wrong results delivered; tput = steps/cycle):";
  let rng = Resoc_des.Rng.create 99L in
  row "%-9s | %-16s | %-22s | %-20s\n" "p_fault" "simplex silent" "dmr silent/retry/tput"
    "tmr silent/retry/tput";
  List.iter
    (fun p_fault ->
      let simplex = Resoc_hw.Lockstep.run rng Resoc_hw.Lockstep.Simplex ~p_fault ~steps:20_000 () in
      let dmr =
        Resoc_hw.Lockstep.run rng (Resoc_hw.Lockstep.Dmr { max_retries = 5 }) ~p_fault
          ~steps:20_000 ()
      in
      let tmr = Resoc_hw.Lockstep.run rng Resoc_hw.Lockstep.Tmr ~p_fault ~steps:20_000 () in
      row "%-9.4f | %-16d | %6d %6d %6.3f | %6d %6d %6.3f\n" p_fault
        simplex.Resoc_hw.Lockstep.silent_errors dmr.Resoc_hw.Lockstep.silent_errors
        dmr.Resoc_hw.Lockstep.retries
        (Resoc_hw.Lockstep.throughput dmr)
        tmr.Resoc_hw.Lockstep.silent_errors tmr.Resoc_hw.Lockstep.retries
        (Resoc_hw.Lockstep.throughput tmr))
    [ 0.001; 0.005; 0.01; 0.05; 0.1 ];
  row "\n(2 cores buy detection, 3 buy masking; silent escapes need identical\n";
  row "double corruption, modeled at 1e-3 conditional probability)\n"

let a5_protocol_switch () =
  header "A5  Protocol switching under hybrid degradation (SII.D)"
    "When a protocol's trust anchor erodes (here: unprotected USIG counters\n\
     under heavy SEUs), adaptation can fall back to a hybrid-free protocol.\n\
     MinBFT w/ plain USIGs under SEUs; at 150k the controller switches to\n\
     PBFT (no hybrids, 3f+1) with a 5k-cycle reconfiguration hole:";
  let run ~switch =
    let engine = Engine.create ~seed:31L () in
    let spec =
      {
        Group.default_spec with
        kind = `Minbft;
        n_clients = 1;
        usig_protection = Register.Plain;
      }
    in
    let sw = Resoc_core.Protocol_switch.create engine (Group.Hub { latency = 5 }) spec in
    (* SEUs rain on the USIG registers of the first (MinBFT) epoch. *)
    (match (Resoc_core.Protocol_switch.group sw).Group.usig_of with
     | Some usig_of ->
       let registers =
         Array.init 3 (fun replica -> Usig.counter_register (usig_of ~replica))
       in
       ignore
         (Seu.start engine (Rng.create 77L) ~rate_per_bit_cycle:2.0e-6 registers)
     | None -> ());
    if switch then
      ignore
        (Engine.at engine ~time:150_000 (fun () ->
             Resoc_core.Protocol_switch.switch sw { spec with Group.kind = `Pbft } ~downtime:5_000));
    Engine.every engine ~period:2_000 (fun () ->
        if Engine.now engine < 380_000 then
          Resoc_core.Protocol_switch.submit sw ~client:0 ~payload:1L);
    Engine.run ~until:400_000 engine;
    let completed = Resoc_core.Protocol_switch.total_completed sw in
    let dropped = Resoc_core.Protocol_switch.dropped_during_switch sw in
    let vcs = ((Resoc_core.Protocol_switch.group sw).Group.stats ()).Stats.view_changes in
    (completed, dropped, vcs)
  in
  let stay_done, _, stay_vcs = run ~switch:false in
  let sw_done, sw_dropped, sw_vcs = run ~switch:true in
  row "%-26s %-12s %-14s %-18s\n" "strategy" "completed" "switch-drops" "view-changes(last)";
  row "%-26s %-12d %-14s %-18d\n" "stay on minbft (plain)" stay_done "-" stay_vcs;
  row "%-26s %-12d %-14d %-18d\n" "switch to pbft @150k" sw_done sw_dropped sw_vcs;
  row "\n(the degraded hybrid causes continuous view-change churn; after the\n";
  row "switch, PBFT runs hybrid-free and the churn stops)\n"

let a6_cheapbft () =
  header "A6  Resource-efficient BFT: CheapBFT's active/passive split (refs [40],[59])"
    "In the fault-free case only f+1 replicas execute and agree (TrInc-\n\
     certified), while f passive replicas absorb attested state updates;\n\
     a suspicion transitions to the full 2f+1 group. Fault-free cost per\n\
     request and crash recovery, f=1, 30 requests:";
  let run kind ~crash =
    let engine = Engine.create ~seed:3L () in
    let spec = { Group.default_spec with kind; n_clients = 1 } in
    let n = Group.n_replicas_of spec in
    let spec =
      if crash then begin
        let b = Array.make n Behavior.honest in
        b.(if n > 1 then 1 else 0) <- Behavior.crash_at 60_000;
        { spec with Group.behaviors = Some b }
      end
      else spec
    in
    let group = Group.build engine (Group.Hub { latency = 5 }) spec in
    Generator.periodic engine ~period:4_000 ~until:120_000 ~n_clients:1
      ~submit:group.Group.submit ();
    Engine.run ~until:400_000 engine;
    let s = group.Group.stats () in
    let msgs_per_req =
      if s.Stats.completed = 0 then 0.0
      else float_of_int (group.Group.messages ()) /. float_of_int s.Stats.completed
    in
    (s.Stats.completed, msgs_per_req, Histogram.max s.Stats.latency)
  in
  row "%-10s %-9s | %-22s | %-24s\n" "protocol" "replicas" "fault-free done/msgs-req"
    "active-crash done/lat-max";
  List.iter
    (fun kind ->
      let d0, m0, _ = run kind ~crash:false in
      let d1, _, lat = run kind ~crash:true in
      let name = match kind with `Cheapbft -> "cheapbft" | `Minbft -> "minbft" | _ -> "pbft" in
      let spec = { Group.default_spec with kind } in
      row "%-10s %-9d | %6d  %6.1f        | %6d  %8.0f\n" name (Group.n_replicas_of spec) d0 m0
        d1 lat)
    [ `Cheapbft; `Minbft; `Pbft ];
  row "\n(cheapbft's fault-free message bill is the lowest; the crash column\n";
  row "shows its transition cost as worst-case latency)\n"

let a7_load_latency () =
  header "A7  Load-latency on the NoC: closed-loop client sweep"
    "The saturation behaviour of the two main BFT protocols over the mesh\n\
     (every client keeps one request outstanding). Throughput in\n\
     requests/kcycle, latency in cycles; the knee is where the shared\n\
     links saturate:";
  let run kind ~clients =
    let soc =
      Soc.create { Soc.default_config with mesh_width = 5; mesh_height = 5; seed = 11L }
    in
    let spec = { Group.default_spec with kind; f = 1; n_clients = clients } in
    let group = Group.build (Soc.engine soc) (Group.On_soc soc) spec in
    let horizon = 150_000 in
    Generator.burst ~n_per_client:200 ~n_clients:clients ~submit:group.Group.submit;
    Engine.run ~until:horizon (Soc.engine soc);
    let s = group.Group.stats () in
    ( Stats.throughput s ~horizon,
      Histogram.mean s.Stats.latency,
      Histogram.percentile s.Stats.latency 99.0 )
  in
  row "%-9s | %-28s | %-28s\n" "clients" "minbft tput/lat/p99" "pbft tput/lat/p99";
  List.iter
    (fun clients ->
      let mt, ml, mp = run `Minbft ~clients in
      let pt, pl, pp = run `Pbft ~clients in
      row "%-9d | %8.2f %8.0f %8.0f | %8.2f %8.0f %8.0f\n" clients mt ml mp pt pl pp)
    [ 1; 2; 4; 8; 16 ]

let a8_batching () =
  header "A8  Request batching in hybrid-anchored BFT"
    "One certificate can cover a whole batch: the primary buffers requests\n\
     for a window and certifies them together, trading latency for\n\
     certificate/message volume. MinBFT, 8 closed-loop clients, hub:";
  let run ~batch_window =
    let engine = Engine.create ~seed:13L () in
    let config =
      { Minbft.default_config with f = 1; n_clients = 8; batch_window; max_batch = 16 }
    in
    let fabric = Transport.hub engine ~n:11 () in
    let sys = Minbft.start engine fabric config () in
    Generator.burst ~n_per_client:50 ~n_clients:8 ~submit:(fun ~client ~payload ->
        Minbft.submit sys ~client ~payload);
    Engine.run ~until:600_000 engine;
    let s = Minbft.stats sys in
    ( s.Stats.completed,
      Resoc_hybrid.Usig.uis_issued (Minbft.usig sys ~replica:0),
      float_of_int (fabric.Transport.messages_sent ()) /. float_of_int (max 1 s.Stats.completed),
      Histogram.mean s.Stats.latency )
  in
  row "%-14s %-10s %-14s %-10s %-10s\n" "batch window" "completed" "certificates" "msgs/req"
    "lat-mean";
  List.iter
    (fun batch_window ->
      let completed, certs, msgs, lat = run ~batch_window in
      row "%-14d %-10d %-14d %-10.1f %-10.0f\n" batch_window completed certs msgs lat)
    [ 0; 50; 200; 500 ]

(* ------------------------------------------------------------------ *)
(* E10: checkpoint certificates + incremental state transfer           *)
(* ------------------------------------------------------------------ *)

let e10_state_transfer () =
  header "E10 Certified checkpoints and rejuvenation state transfer"
    "Claim (SII.C / DESIGN S8): with checkpoint certificates enabled, a\n\
     rejuvenated replica restarts wiped and must fetch the latest stable\n\
     checkpoint plus log suffix over the NoC — so rejuvenation has a\n\
     measurable transfer cost (bytes, latency) instead of a free state\n\
     copy. Periodic rejuvenation, no APT, 300k-cycle horizon:";
  let horizon = 300_000 in
  let ckpt = Some { Resoc_repl.Checkpoint.interval = 32; window = 8; chunk = 8 } in
  let base ~kind ~checkpoint seed =
    {
      Resilient_system.default_config with
      soc = { Soc.default_config with seed };
      group = { Group.default_spec with kind; n_clients = 2; checkpoint };
      apt = None;
      rejuvenation = Some { Rejuvenation.period = 10_000; downtime = 1_000 };
      diversity = Diversity.Max_diversity;
      relocate_on_rejuvenation = false;
    }
  in
  let cells =
    List.map
      (fun (name, kind, checkpoint) ->
        Campaign.cell
          ~params:
            [ ("protocol", name); ("ckpt", if checkpoint = None then "off" else "on") ]
          (name ^ if checkpoint = None then "/off" else "")
          (fun ~seed ->
            let sys = Resilient_system.create (base ~kind ~checkpoint seed) in
            let r = Resilient_system.run sys ~horizon ~workload_period:500 in
            [
              ("completed", float_of_int r.Resilient_system.completed);
              ("availability", r.Resilient_system.availability);
              ("rejuvenations", float_of_int r.Resilient_system.rejuvenations);
              ("checkpoints", float_of_int r.Resilient_system.checkpoints);
              ("transfers", float_of_int r.Resilient_system.state_transfers);
              ("transfer_bytes", float_of_int r.Resilient_system.transfer_bytes);
              ("transfer_cycles", r.Resilient_system.transfer_cycles_mean);
            ]))
      [
        ("pbft", `Pbft, ckpt);
        ("minbft", `Minbft, ckpt);
        ("a2m-bft", `A2m_bft, ckpt);
        ("cheapbft", `Cheapbft, ckpt);
        ("paxos", `Paxos, ckpt);
        ("primary-backup", `Primary_backup, ckpt);
        ("minbft", `Minbft, None);
      ]
  in
  let result =
    run_campaign ~id:"e10" ~title:"Certified checkpoints and rejuvenation state transfer" cells
  in
  row "%-16s %-14s %-13s %-12s %-10s %-16s %-12s\n" "protocol" "availability" "checkpoints"
    "transfers" "rejuv" "transfer-bytes" "fetch-lat";
  List.iter
    (fun agg ->
      let avail = Campaign.metric agg "availability" in
      let ckpts = Campaign.metric agg "checkpoints" in
      let transfers = Campaign.metric agg "transfers" in
      let rejs = Campaign.metric agg "rejuvenations" in
      let bytes = Campaign.metric agg "transfer_bytes" in
      let lat = Campaign.metric agg "transfer_cycles" in
      row "%-16s %-14.3f %-13.0f %-12.1f %-10.0f %-16.0f %-12.0f\n" agg.Campaign.cell_id
        avail.Cstats.mean ckpts.Cstats.mean transfers.Cstats.mean rejs.Cstats.mean
        bytes.Cstats.mean lat.Cstats.mean)
    result.Campaign.cells

(* ------------------------------------------------------------------ *)
(* E11: adaptive fault-tolerant routing under link-failure campaigns   *)
(* ------------------------------------------------------------------ *)

let e11_adaptive_routing () =
  header "E11 Adaptive NoC routing under link-failure campaigns"
    "Claim (SI / DESIGN S9): deterministic dimension-order routing ties\n\
     delivery to one or two fixed paths, so a fault set that severs them\n\
     drops traffic even when the mesh stays connected. Adaptive routing\n\
     recomputes per-router next-hop tables on every fail/repair event and\n\
     delivers exactly when the endpoints are connected. Three campaigns:\n\
     an adversarial wall (connected, both XY and YX broken), escalating\n\
     Poisson upsets + Weibull wear-out, and the protocols over a faulty\n\
     fabric:";
  let routings =
    [
      ("xy", Resoc_noc.Network.Xy);
      ("xy+yx", Resoc_noc.Network.Xy_with_yx_fallback);
      ("adaptive", Resoc_noc.Network.Adaptive);
    ]
  in
  (* Family A: a wall of failed links on the column-3/4 boundary of an 8x8
     mesh, open only in row 0. The mesh stays connected, but for any pair
     crossing the wall off row 0 the XY path (horizontal in the source
     row) and the YX path (horizontal in the destination row) are both
     severed — only table-driven detours through row 0 deliver. *)
  let wall_run ~routing ~seed =
    let engine = Engine.create ~seed () in
    let rng = Rng.split (Engine.rng engine) in
    let mesh = Resoc_noc.Mesh.create ~width:8 ~height:8 in
    for y = 1 to 7 do
      let a = (y * 8) + 3 and b = (y * 8) + 4 in
      Resoc_noc.Mesh.fail_link mesh { Resoc_noc.Mesh.src = a; dst = b };
      Resoc_noc.Mesh.fail_link mesh { Resoc_noc.Mesh.src = b; dst = a }
    done;
    let net =
      Resoc_noc.Network.create engine mesh { Resoc_noc.Network.default_config with routing }
    in
    for node = 0 to 63 do
      Resoc_noc.Network.attach net ~node (fun ~src:_ _ -> ())
    done;
    let sent = 500 in
    for _ = 1 to sent do
      (* Wall-crossing pair, both endpoints off the open row. *)
      let src = ((1 + Rng.int rng 7) * 8) + Rng.int rng 4 in
      let dst = ((1 + Rng.int rng 7) * 8) + 4 + Rng.int rng 4 in
      Resoc_noc.Network.send net ~src ~dst ~bytes_:16 ()
    done;
    Engine.run engine;
    [
      ("delivery", float_of_int (Resoc_noc.Network.delivered net) /. float_of_int sent);
      ("recomputes", float_of_int (Resoc_noc.Network.recomputes net));
    ]
  in
  (* Family B: continuous random traffic on an 8x8 mesh while a link
     campaign runs — Poisson transient upsets at an escalating rate plus
     Weibull wear-out landing permanent failures. *)
  let campaign_run ~routing ~upset_rate ~seed =
    let engine = Engine.create ~seed () in
    let rng = Rng.split (Engine.rng engine) in
    let mesh = Resoc_noc.Mesh.create ~width:8 ~height:8 in
    let net =
      Resoc_noc.Network.create engine mesh { Resoc_noc.Network.default_config with routing }
    in
    for node = 0 to 63 do
      Resoc_noc.Network.attach net ~node (fun ~src:_ _ -> ())
    done;
    let lf =
      Resoc_fault.Link_fault.start engine
        (Rng.split (Engine.rng engine))
        mesh
        {
          Resoc_fault.Link_fault.upset_rate;
          upset_repair_mean = 400.0;
          wearout_shape = 2.0;
          wearout_scale = 150_000.0;
        }
    in
    let horizon = 40_000 in
    Engine.every engine ~period:20 (fun () ->
        let src = Rng.int rng 64 in
        let dst = Rng.int rng 64 in
        Resoc_noc.Network.send net ~src ~dst ~bytes_:16 ());
    Engine.run ~until:horizon engine;
    Resoc_fault.Link_fault.halt lf;
    let sent = Resoc_noc.Network.sent net in
    [
      ( "delivery",
        if sent = 0 then 0.0
        else float_of_int (Resoc_noc.Network.delivered net) /. float_of_int sent );
      ("upsets", float_of_int (Resoc_fault.Link_fault.upsets lf));
      ("wearouts", float_of_int (Resoc_fault.Link_fault.wearouts lf));
      ("recomputes", float_of_int (Resoc_noc.Network.recomputes net));
    ]
  in
  (* Family C: the protocols over an SoC fabric whose links fail under
     the same campaign. Adaptive mode additionally surfaces partitions
     (reachable pairs < total) to the resilience layer. *)
  let proto_run ~kind ~routing ~seed =
    let noc = { Resoc_noc.Network.default_config with routing } in
    let soc = Soc.create { Soc.default_config with seed; noc } in
    let partitions = ref 0 in
    Soc.set_on_partition soc (fun ~reachable ~total -> if reachable < total then incr partitions);
    let spec = { Group.default_spec with kind; f = 1; n_clients = 2 } in
    let group = Group.build (Soc.engine soc) (Group.On_soc soc) spec in
    let lf =
      Resoc_fault.Link_fault.start (Soc.engine soc) (Soc.rng soc) (Soc.mesh soc)
        {
          Resoc_fault.Link_fault.upset_rate = 2e-5;
          upset_repair_mean = 2_500.0;
          wearout_shape = 2.0;
          wearout_scale = 0.0;
        }
    in
    let requests = 20 in
    Generator.burst ~n_per_client:(requests / 2) ~n_clients:2 ~submit:group.Group.submit;
    Engine.run ~until:300_000 (Soc.engine soc);
    Resoc_fault.Link_fault.halt lf;
    let s = group.Group.stats () in
    [
      ("completed", float_of_int s.Stats.completed /. float_of_int requests);
      ("noc_dropped", float_of_int (Soc.noc_dropped soc));
      ("partitions", float_of_int !partitions);
      ("upsets", float_of_int (Resoc_fault.Link_fault.upsets lf));
    ]
  in
  let rates = [ ("lo", 5e-6); ("mid", 2e-5); ("hi", 8e-5) ] in
  let protocols =
    [
      ("pbft", `Pbft);
      ("minbft", `Minbft);
      ("a2m-bft", `A2m_bft);
      ("cheapbft", `Cheapbft);
      ("paxos", `Paxos);
    ]
  in
  let wall_cells =
    List.map
      (fun (rname, routing) ->
        Campaign.cell
          ~params:[ ("family", "wall"); ("routing", rname) ]
          ("wall/" ^ rname)
          (fun ~seed -> wall_run ~routing ~seed))
      routings
  in
  let rate_cells =
    List.concat_map
      (fun (lbl, upset_rate) ->
        List.map
          (fun (rname, routing) ->
            Campaign.cell
              ~params:
                [
                  ("family", "poisson");
                  ("rate", Printf.sprintf "%g" upset_rate);
                  ("routing", rname);
                ]
              (lbl ^ "/" ^ rname)
              (fun ~seed -> campaign_run ~routing ~upset_rate ~seed))
          routings)
      rates
  in
  let proto_cells =
    List.concat_map
      (fun (pname, kind) ->
        List.map
          (fun (rname, routing) ->
            Campaign.cell
              ~params:[ ("family", "protocol"); ("protocol", pname); ("routing", rname) ]
              (pname ^ "/" ^ rname)
              (fun ~seed -> proto_run ~kind ~routing ~seed))
          routings)
      protocols
  in
  let result =
    run_campaign ~id:"e11" ~title:"Adaptive NoC routing under link-failure campaigns"
      (wall_cells @ rate_cells @ proto_cells)
  in
  let agg_of id = List.find (fun a -> a.Campaign.cell_id = id) result.Campaign.cells in
  row "A: adversarial wall (connected mesh; XY and YX both severed off row 0)\n";
  row "%-12s %-22s %-12s\n" "routing" "delivery (95% CI)" "recomputes";
  List.iter
    (fun (rname, _) ->
      let agg = agg_of ("wall/" ^ rname) in
      row "%-12s %-22s %-12.0f\n" rname
        (Cstats.pp_mean_ci ~decimals:3 (Campaign.metric agg "delivery"))
        (Campaign.metric agg "recomputes").Cstats.mean)
    routings;
  row "\nB: Poisson upsets (per link-cycle, 400-cycle mean repair) + Weibull wear-out\n";
  row "%-8s %-22s %-22s %-22s %-9s %-9s\n" "rate" "xy (95% CI)" "xy+yx (95% CI)"
    "adaptive (95% CI)" "upsets" "wearouts";
  List.iter
    (fun (lbl, rate) ->
      let col rname = Cstats.pp_mean_ci ~decimals:3 (Campaign.metric (agg_of (lbl ^ "/" ^ rname)) "delivery") in
      let adaptive = agg_of (lbl ^ "/adaptive") in
      row "%-8g %-22s %-22s %-22s %-9.0f %-9.0f\n" rate (col "xy") (col "xy+yx") (col "adaptive")
        (Campaign.metric adaptive "upsets").Cstats.mean
        (Campaign.metric adaptive "wearouts").Cstats.mean)
    rates;
  row "\nC: protocols on a faulty 4x4 fabric (rate 2e-5, 2.5k-cycle repairs)\n";
  row "%-14s %-20s %-20s %-20s %-10s %-12s %-11s\n" "protocol" "xy completed"
    "xy+yx completed" "adaptive completed" "drops/xy" "drops/adapt" "partitions";
  List.iter
    (fun (pname, _) ->
      let col rname =
        Cstats.pp_mean_ci ~decimals:3 (Campaign.metric (agg_of (pname ^ "/" ^ rname)) "completed")
      in
      let drops rname = (Campaign.metric (agg_of (pname ^ "/" ^ rname)) "noc_dropped").Cstats.mean in
      let adaptive = agg_of (pname ^ "/adaptive") in
      row "%-14s %-20s %-20s %-20s %-10.1f %-12.1f %-11.1f\n" pname (col "xy") (col "xy+yx")
        (col "adaptive") (drops "xy") (drops "adaptive")
        (Campaign.metric adaptive "partitions").Cstats.mean)
    protocols

let all =
  [
    ("e1", "gate-level redundancy", e1_gate_redundancy);
    ("e2", "USIG register protection", e2_usig_ecc);
    ("e3", "PBFT vs MinBFT", e3_pbft_vs_minbft);
    ("e4", "passive vs active replication", e4_passive_vs_active);
    ("e5", "diversity vs common mode", e5_diversity);
    ("e6", "rejuvenation vs APT", e6_rejuvenation);
    ("e7", "threat-adaptive f", e7_adaptation);
    ("e8", "reconfiguration governance", e8_reconfig_governance);
    ("e9", "hybrid complexity crossover", e9_hybrid_complexity);
    ("e10", "checkpoint certificates + state transfer", e10_state_transfer);
    ("e11", "adaptive noc routing under link failures", e11_adaptive_routing);
    ("f1", "layered stack composition", f1_layered_stack);
    ("a1", "razor timing speculation (ablation)", a1_razor);
    ("a2", "3d multi-vendor stacking (ablation)", a2_vendor_stack);
    ("a3", "fault-tolerant noc routing (ablation)", a3_noc_routing);
    ("a4", "lockstep coupling (ablation)", a4_lockstep);
    ("a5", "protocol switching (ablation)", a5_protocol_switch);
    ("a6", "cheapbft active/passive split (ablation)", a6_cheapbft);
    ("a7", "noc load-latency sweep (ablation)", a7_load_latency);
    ("a8", "request batching (ablation)", a8_batching);
  ]
