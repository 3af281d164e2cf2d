(* Space: an orbital compute module under radiation.

   Single-event upsets flip register bits at a rate that depends on the
   orbit and shielding. The trusted USIG counters are the most critical
   state on the chip (SIII of the paper): this example bombards them and
   compares plain registers against SECDED-protected ones, then shows the
   packaged space scenario with staggered rejuvenation.

   Run with: dune exec examples/space.exe *)

module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Register = Resoc_hw.Register
module Usig = Resoc_hybrid.Usig
module Seu = Resoc_fault.Seu
module Stats = Resoc_repl.Stats
module Minbft = Resoc_repl.Minbft
module Transport = Resoc_repl.Transport
module Resilient_system = Resoc_core.Resilient_system
module Scenario = Resoc_workload.Scenario
module Generator = Resoc_workload.Generator

let orbit_run ~protection ~seu_rate =
  let engine = Engine.create ~seed:2030L () in
  let config = { Minbft.default_config with f = 1; n_clients = 1; usig_protection = protection } in
  let n = Minbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 1) () in
  let sys = Minbft.start engine fabric config () in
  let registers = Array.init n (fun replica -> Usig.counter_register (Minbft.usig sys ~replica)) in
  let _ = Seu.start engine (Rng.create 9L) ~rate_per_bit_cycle:seu_rate registers in
  (* Background scrubbing: the standard companion of SECDED storage. *)
  Engine.every engine ~period:250 (fun () -> Array.iter Register.scrub registers);
  Generator.periodic engine ~period:2_000 ~until:250_000 ~n_clients:1
    ~submit:(fun ~client ~payload -> Minbft.submit sys ~client ~payload)
    ();
  Engine.run ~until:280_000 engine;
  (Minbft.stats sys, Minbft.cert_gap_drops sys)

let () =
  Format.printf "== Orbital payload under radiation ==@.@.";
  let seu_rate = 1.0e-6 in
  Format.printf "SEU rate: %.1e upsets/bit/cycle on the USIG counter registers@.@." seu_rate;
  List.iter
    (fun (label, protection) ->
      let s, gaps = orbit_run ~protection ~seu_rate in
      Format.printf "-- %-6s registers: completed %d/%d, view changes %d, counter gaps %d@." label
        s.Stats.completed s.Stats.submitted s.Stats.view_changes gaps)
    [ ("plain", Register.Plain); ("secded", Register.Secded) ];
  Format.printf
    "@.A plain counter silently desynchronizes under upsets (gaps, view-change@.\
     storms); SECDED corrects single flips in place — the SIII trade-off.@.@.";

  Format.printf "-- packaged scenario: SECDED hybrids + staggered rejuvenation --@.";
  let scenario = Scenario.space_radiation () in
  let sys = Resilient_system.create scenario.Scenario.config in
  let report =
    Resilient_system.run sys ~horizon:scenario.Scenario.horizon
      ~workload_period:scenario.Scenario.workload_period
  in
  Format.printf "%a@." Resilient_system.pp_report report
