(* soc_sim: command-line driver for the resoc simulator.

   soc_sim scenario <name>         run a packaged domain scenario
   soc_sim run [options]           run a custom resilient-SoC configuration
   soc_sim list                    list packaged scenarios *)

module Engine = Resoc_des.Engine
module Register = Resoc_hw.Register
module Diversity = Resoc_resilience.Diversity
module Rejuvenation = Resoc_resilience.Rejuvenation
module Group = Resoc_core.Group
module Soc = Resoc_core.Soc
module Resilient_system = Resoc_core.Resilient_system
module Scenario = Resoc_workload.Scenario
module Obs = Resoc_obs.Obs
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check
module Inject = Resoc_check.Inject
module Replay = Resoc_check.Replay
open Cmdliner

let print_report report =
  Format.printf "%a@." Resilient_system.pp_report report

(* The run's resilience records, oldest first, named as in Chrome traces.
   The lost count says whether wraparound overwrote the start of the run. *)
let print_event_log sys =
  let ring = (Engine.obs (Soc.engine (Resilient_system.soc sys))).Obs.ring in
  let lines = ref [] in
  Ring.iter ring (fun ~time ~cat ~phase:_ ~id ~arg ->
      if cat = Obs.Cat.resilience then
        lines :=
          Printf.sprintf "[%8d] %-22s %s" time (Obs.default_name ~cat ~id)
            (Obs.resilience_detail ~id ~arg)
          :: !lines);
  Format.printf "@.--- resilience event log (%d entries) ---@." (List.length !lines);
  List.iter (Format.printf "%s@.") (List.rev !lines);
  Format.printf "ring records lost to wraparound: %d@." (Ring.dropped ring)

let finish_obs ~metrics ~trace =
  (match trace with
   | Some path ->
     let dropped = Obs.write_trace path in
     Format.eprintf "wrote Chrome trace to %s@." path;
     if dropped > 0 then
       Format.eprintf "trace rings wrapped: %d records lost, the trace starts mid-run@." dropped
   | None -> ());
  if metrics then print_string (Obs.metrics_json ())

(* A FAIL record to replay, refused (exit 2) when it cannot be read or was
   recorded for another experiment, cell or seed: re-running it with this
   run's configuration would prove nothing. *)
let replay_record path ~cell ~seed =
  let refuse msg =
    Format.eprintf "--replay %s: %s@." path msg;
    exit 2
  in
  match Replay.read path with
  | exception (Sys_error msg | Failure msg) -> refuse msg
  | rt when rt.Replay.experiment <> "soc_sim" ->
    refuse (Printf.sprintf "recorded by experiment %s, not soc_sim" rt.experiment)
  | rt when rt.cell <> cell ->
    refuse (Printf.sprintf "recorded for %s, not %s" rt.cell cell)
  | rt when rt.seed <> seed ->
    refuse (Printf.sprintf "recorded with seed %Ld, not %Ld" rt.seed seed)
  | rt -> rt

(* Build and run one simulation of [config], printing its report, event
   log and obs output unless [quiet], under the invariant checker when
   [check], [shrink] or [replay] asks for it. Shrinking re-executes the
   simulation many times with [quiet:true]. Replay re-executes it once
   under the recorded mask; the caller must pass the same configuration
   flags as the original run. Observability flags are set before the
   system (and its engine) is created: instruments are registered at
   component construction. *)
let simulate ~cell config ~horizon ~workload_period ~show_event_log ~metrics ~trace ~check
    ~shrink ~replay =
  if metrics then Obs.enable_metrics ();
  if trace <> None || show_event_log then Obs.enable_tracing ();
  let run ~quiet () =
    let sys = Resilient_system.create config in
    let report = Resilient_system.run sys ~horizon ~workload_period in
    if not quiet then begin
      print_report report;
      if show_event_log then print_event_log sys;
      finish_obs ~metrics ~trace
    end
  in
  let seed = config.Resilient_system.soc.Soc.seed in
  if not (check || shrink || replay <> None) then run ~quiet:false ()
  else begin
    let replay = Option.map (replay_record ~cell ~seed) replay in
    Check.enable ();
    Inject.record ();
    match replay with
    | Some rt ->
      (match Replay.attempt ~mask:(rt.total_events, rt.keep) (run ~quiet:false) with
       | Some err ->
         Format.printf "replay: reproduced: %s@." err;
         exit 0
       | None ->
         Format.printf "replay: ran clean — failure NOT reproduced@.";
         exit 1)
    | None ->
      (match Replay.attempt (run ~quiet:false) with
       | None -> ()
       | Some err ->
         Format.eprintf "invariant failure: %s@." err;
         if shrink then begin
           match Replay.shrink ~experiment:"soc_sim" ~cell ~seed (run ~quiet:true) with
           | Some record ->
             let out = Replay.write ~dir:"." record in
             Format.eprintf "shrunk %d -> %d injection events; wrote %s@." record.total_events
               (List.length record.keep) out
           | None -> Format.eprintf "the failure did not recur on re-run; not shrinking@."
         end;
         exit 1)
  end

(* --- scenario command --- *)

let scenario_names () = List.map (fun s -> s.Scenario.name) (Scenario.all ())

let run_scenario name horizon_override show_event_log metrics trace check shrink replay =
  match List.find_opt (fun s -> s.Scenario.name = name) (Scenario.all ()) with
  | None ->
    Format.eprintf "unknown scenario %S; available: %s@." name
      (String.concat ", " (scenario_names ()));
    exit 1
  | Some scenario ->
    Format.printf "scenario %s: %s@.@." scenario.Scenario.name scenario.Scenario.description;
    let horizon =
      match horizon_override with Some h -> h | None -> scenario.Scenario.horizon
    in
    simulate ~cell:("scenario/" ^ name) scenario.Scenario.config ~horizon
      ~workload_period:scenario.Scenario.workload_period ~show_event_log ~metrics ~trace ~check
      ~shrink ~replay

let event_log_flag =
  Arg.(value & flag
       & info [ "event-log" ]
           ~doc:"Turn tracing on and print the run's resilience events (rejuvenations, \
                 relocations, compromises, safety loss) from its trace ring, with the number \
                 of ring records lost to wraparound.")

let metrics_flag =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print the obs metrics registry as JSON on stdout.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc:"Write a Chrome trace_event JSON of the run to $(docv).")

let check_flag =
  Arg.(value & flag
       & info [ "check" ] ~doc:"Enable the resoc_check invariant checker; exit 1 on violation.")

let shrink_flag =
  Arg.(value & flag
       & info [ "shrink" ]
           ~doc:"Minimize a failing injection schedule to FAIL_soc_sim_<cell>_<seed>.json, \
                 where <cell> is $(b,run) or $(b,scenario_)<name> (implies $(b,--check)).")

let replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-execute the run under the suppression mask recorded in $(docv); exit 0 when \
                 the failure reproduces, 2 when $(docv) cannot be read or was recorded for \
                 another experiment, cell or seed. Pass the same configuration flags as the \
                 original run (implies $(b,--check)).")

let scenario_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Scenario name.")
  in
  let horizon_arg =
    Arg.(value & opt (some int) None & info [ "horizon" ] ~docv:"CYCLES" ~doc:"Override the horizon.")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a packaged domain scenario")
    Term.(const run_scenario $ name_arg $ horizon_arg $ event_log_flag $ metrics_flag $ trace_arg
          $ check_flag $ shrink_flag $ replay_arg)

(* --- list command --- *)

let list_scenarios () =
  List.iter
    (fun s -> Format.printf "%-12s %s@." s.Scenario.name s.Scenario.description)
    (Scenario.all ())

let list_cmd = Cmd.v (Cmd.info "list" ~doc:"List packaged scenarios") Term.(const list_scenarios $ const ())

(* --- run command --- *)

let protocol_conv =
  Arg.enum
    [
      ("pbft", `Pbft);
      ("minbft", `Minbft);
      ("a2m-bft", `A2m_bft);
      ("cheapbft", `Cheapbft);
      ("paxos", `Paxos);
      ("primary-backup", `Primary_backup);
    ]

let protection_conv =
  Arg.enum [ ("plain", Register.Plain); ("parity", Register.Parity); ("secded", Register.Secded) ]

let diversity_conv =
  Arg.enum
    [ ("same", Diversity.Same); ("round-robin", Diversity.Round_robin); ("max", Diversity.Max_diversity) ]

let run_custom protocol f n_clients mesh protection diversity n_variants rejuv_period
    relocate apt_mean horizon workload_period seed show_event_log metrics trace check shrink
    replay =
  let soc_config =
    { Soc.default_config with mesh_width = mesh; mesh_height = mesh; seed = Int64.of_int seed }
  in
  let group =
    { Group.default_spec with kind = protocol; f; n_clients; usig_protection = protection }
  in
  let config =
    {
      Resilient_system.default_config with
      soc = soc_config;
      group;
      diversity;
      n_variants;
      rejuvenation =
        (match rejuv_period with
         | Some period -> Some { Rejuvenation.period; downtime = max 1 (period / 10) }
         | None -> None);
      relocate_on_rejuvenation = relocate;
      apt =
        (match apt_mean with
         | Some mean ->
           Some { Resilient_system.default_apt with mean_exploit_cycles = float_of_int mean }
         | None -> None);
    }
  in
  simulate ~cell:"run" config ~horizon ~workload_period ~show_event_log ~metrics ~trace ~check
    ~shrink ~replay

let run_cmd =
  let protocol =
    Arg.(value & opt protocol_conv `Minbft & info [ "protocol" ] ~docv:"P" ~doc:"Replication protocol.")
  in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Tolerated faults.") in
  let n_clients = Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Client count.") in
  let mesh = Arg.(value & opt int 4 & info [ "mesh" ] ~docv:"N" ~doc:"Mesh edge (NxN).") in
  let protection =
    Arg.(value & opt protection_conv Register.Secded
         & info [ "usig-protection" ] ~doc:"USIG register protection (minbft).")
  in
  let diversity =
    Arg.(value & opt diversity_conv Diversity.Max_diversity & info [ "diversity" ] ~doc:"Variant strategy.")
  in
  let n_variants = Arg.(value & opt int 4 & info [ "variants" ] ~doc:"Design variant pool size.") in
  let rejuv =
    Arg.(value & opt (some int) None & info [ "rejuvenate" ] ~docv:"PERIOD" ~doc:"Rejuvenation period.")
  in
  let relocate = Arg.(value & flag & info [ "relocate" ] ~doc:"Relocate regions on rejuvenation.") in
  let apt =
    Arg.(value & opt (some int) None
         & info [ "apt" ] ~docv:"MEAN" ~doc:"Enable the APT adversary (mean exploit effort in cycles).")
  in
  let horizon = Arg.(value & opt int 300_000 & info [ "horizon" ] ~doc:"Simulation horizon (cycles).") in
  let period = Arg.(value & opt int 2_000 & info [ "workload-period" ] ~doc:"Request cadence per client.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master random seed.") in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a custom resilient-SoC configuration")
    Term.(const run_custom $ protocol $ f $ n_clients $ mesh $ protection $ diversity $ n_variants
          $ rejuv $ relocate $ apt $ horizon $ period $ seed $ event_log_flag $ metrics_flag
          $ trace_arg $ check_flag $ shrink_flag $ replay_arg)

let main =
  Cmd.group
    (Cmd.info "soc_sim" ~version:"1.0.0"
       ~doc:"Fault- and intrusion-resilient manycore SoC simulator (DSN'23 reproduction)")
    [ scenario_cmd; run_cmd; list_cmd ]

let () = exit (Cmd.eval main)
