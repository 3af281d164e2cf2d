(* The metric catalog: names, units, directions and regression bounds.
   BENCHMARK.json repeats these entries for the benchmark driver; the
   smoke test checks the two agree (see [check_benchmark_json]). Which
   end-to-end metric each layer metric should move, on which workload, is
   tabled in README.md. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** Share of the baseline median; end-to-end only. *)
}

let workloads =
  [
    ( "agree-hub",
      "six protocols, closed loop on a 5-cycle hub: protocol logic, clients, hashing and the \
       engine do the work; NoC and batcher bypassed" );
    ( "agree-batch",
      "the agree-hub input with batching and pipelining on: same protocols, fewer and larger \
       messages through the Batcher" );
    ( "mesh",
      "PBFT and MinBFT f=3 on an 8x8 XY unicast mesh, closed loop: NoC hop-by-hop events \
       dominate" );
    ( "faulty-mesh",
      "six protocols on a 6x6 adaptive-routing mesh with checkpoints, state transfer and link \
       upsets, open-loop Poisson arrivals: the resilient stack" );
    ( "suite",
      "the twenty bench/main.exe experiments at --seeds 4 --jobs 1 as subprocesses: what users \
       wait for; the only workload for lib/hw and the campaign runner" );
  ]

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let end_to_end =
  [
    e2e "wall_s" "s" Lower 0.2;
    e2e "req_per_s" "1/s" Higher 0.2;
    e2e "setup_s" "s" Lower 0.25;
    e2e "alloc_b_per_req" "B" Lower 0.08;
    e2e "heap_peak_mb" "MB" Lower 0.1;
    e2e "sim_p50_cycles" "cycles" Lower 0.05;
    e2e "sim_p99_cycles" "cycles" Lower 0.05;
  ]

let kinds = [ "pbft"; "minbft"; "a2m-bft"; "cheapbft"; "paxos"; "primary-backup" ]

let suite_parts = [ "e1"; "e2"; "e10"; "e11"; "a3"; "a7"; "rest" ]

let per_layer =
  [
    (* traced run: self time by layer, counters from the obs registry *)
    layer "repl.replica_share" "share" Lower;
    layer "repl.replica_calls_per_req" "count" Lower;
    layer "repl.client_share" "share" Lower;
    layer "transport.send_share" "share" Lower;
    layer "transport.sends_per_req" "count" Lower;
    layer "transport.bytes_per_req" "B" Lower;
    layer "des.residual_share" "share" Lower;
    layer "des.cancelled_ratio" "ratio" Lower;
    layer "noc.hops_per_req" "count" Lower;
    layer "noc.recomputes" "count" Lower;
    layer "noc.recompute_visits" "count" Lower;
    layer "noc.dropped_per_req" "count" Lower;
    layer "repl.batch_fill" "count" Higher;
    layer "trace.overhead" "ratio" Lower;
    layer "trace.faithful" "flag" Higher;
  ]
  @ List.map (fun k -> layer ("repl." ^ k ^ ".req_per_ms") "1/ms" Higher) kinds
  @ [
      (* untraced run: clock reads per system only *)
      layer "des.events_per_req" "count" Lower;
      layer "des.events_per_us" "1/us" Higher;
      layer "core.soc_setup_share" "share" Lower;
      layer "core.group_setup_share" "share" Lower;
      layer "gc.minor_per_kreq" "count" Lower;
      layer "gc.major_per_kreq" "count" Lower;
      layer "gc.promoted_b_per_req" "B" Lower;
      layer "repl.checkpoints" "count" Lower;
      layer "repl.state_transfers" "count" Lower;
      layer "repl.transfer_bytes" "B" Lower;
      layer "repl.dissenting_replies" "count" Lower;
      layer "fault.link_upsets" "count" Lower;
      layer "workload.backlog_per_kreq" "count" Lower;
    ]
  @ List.map (fun p -> layer ("suite." ^ p ^ "_share") "share" Lower) suite_parts
  @ List.map (fun (m, _) -> layer m "ns" Lower) Micro.kernels

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"

(* The exact line BENCHMARK.json carries for [m]. *)
let json_entry m =
  match m.bound with
  | Some b ->
    Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s", "bound": %g}|} m.name m.unit_
      (better_name m.better) b
  | None ->
    Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s"}|} m.name m.unit_
      (better_name m.better)

let occurrences ~sub s =
  let n = String.length sub in
  let count = ref 0 in
  for i = 0 to String.length s - n do
    if String.sub s i n = sub then incr count
  done;
  !count

(* Every catalog entry and workload must appear verbatim in BENCHMARK.json,
   and the file must name nothing else; returns the problems found. *)
let check_benchmark_json text =
  let absent sub = occurrences ~sub text = 0 in
  let missing =
    List.filter_map
      (fun m ->
        let line = json_entry m in
        if absent line then Some ("missing or different: " ^ line) else None)
      (end_to_end @ per_layer)
    @ List.filter_map
        (fun (w, why) ->
          let line = Printf.sprintf {|{"name": "%s", "why": "%s"}|} w why in
          if absent line then Some ("missing or different workload: " ^ w) else None)
        workloads
  in
  let named = occurrences ~sub:{|{"name": |} text in
  let expected = List.length end_to_end + List.length per_layer + List.length workloads in
  if named <> expected then
    missing @ [ Printf.sprintf "BENCHMARK.json names %d entries, the catalog %d" named expected ]
  else missing
