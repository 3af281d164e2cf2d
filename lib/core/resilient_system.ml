module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Histogram = Resoc_des.Metrics.Histogram
module Register = Resoc_hw.Register
module Region = Resoc_fabric.Region
module Grid = Resoc_fabric.Grid
module Apt = Resoc_fault.Apt
module Common_mode = Resoc_fault.Common_mode
module Diversity = Resoc_resilience.Diversity
module Rejuvenation = Resoc_resilience.Rejuvenation
module Stats = Resoc_repl.Stats
module Obs = Resoc_obs.Obs
module Ring = Resoc_obs.Ring

type apt_config = {
  mean_exploit_cycles : float;
  exposure : int;
  backdoor_delay : int;
  detection_prob : float;
  detection_delay : int;
}

let default_apt =
  {
    mean_exploit_cycles = 200_000.0;
    exposure = 10_000;
    backdoor_delay = 50_000;
    detection_prob = 0.0;
    detection_delay = 5_000;
  }

type config = {
  soc : Soc.config;
  group : Group.spec;
  n_variants : int;
  shared_vuln_prob : float;
  diversity : Diversity.strategy;
  rejuvenation : Rejuvenation.policy option;
  relocate_on_rejuvenation : bool;
  reactive_rejuvenation : bool;
  apt : apt_config option;
  trojaned_frames : (int * int) list;
  region_edge : int;
  sample_period : int;
}

let default_config =
  {
    soc = Soc.default_config;
    group = Group.default_spec;
    n_variants = 4;
    shared_vuln_prob = 0.05;
    diversity = Diversity.Max_diversity;
    rejuvenation = Some { Rejuvenation.period = 50_000; downtime = 2_000 };
    relocate_on_rejuvenation = false;
    reactive_rejuvenation = false;
    apt = Some default_apt;
    trojaned_frames = [];
    region_edge = 2;
    sample_period = 500;
  }

type report = {
  horizon : int;
  submitted : int;
  completed : int;
  availability : float;
  throughput_kcycle : float;
  latency_mean : float;
  latency_p99 : float;
  view_changes : int;
  wrong_replies : int;
  messages : int;
  bytes : int;
  rejuvenations : int;
  checkpoints : int;
  state_transfers : int;
  transfer_bytes : int;
  transfer_cycles_mean : float;
  compromises : int;
  compromised_peak : int;
  failed_at : int option;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>horizon        %d cycles@,completed      %d/%d (availability %.3f)@,throughput     \
     %.2f req/kcycle@,latency        mean %.0f p99 %.0f cycles@,view changes   %d@,wrong \
     replies  %d@,noc messages   %d (%d bytes)@,rejuvenations  %d@,checkpoints    %d@,state \
     transfers %d (%d bytes, mean %.0f cycles)@,compromises    %d (peak simultaneous \
     %d)@,safety         %s@]"
    r.horizon r.completed r.submitted r.availability r.throughput_kcycle r.latency_mean
    r.latency_p99 r.view_changes r.wrong_replies r.messages r.bytes r.rejuvenations r.checkpoints
    r.state_transfers r.transfer_bytes r.transfer_cycles_mean r.compromises r.compromised_peak
    (match r.failed_at with
     | None -> "held for the whole run"
     | Some t -> Printf.sprintf "LOST at cycle %d (more than f compromised)" t)

type replica_site = {
  mutable slot : Grid.slot_id;
  mutable variant : int;
  apt_target : Apt.target option;
}

type t = {
  config : config;
  soc : Soc.t;
  group : Group.t;
  diversity : Diversity.t;
  sites : replica_site array;
  assignment : int array;
  rejuvenation : Rejuvenation.t option ref;
  apt : Apt.t option;
  rng : Rng.t;
  mutable compromises : int;
  mutable compromised_peak : int;
  mutable failed_at : int option;
  mutable ran : bool;
}

(* Resilience events go on the engine's obs ring; see DESIGN.md §6 for the
   id/arg layout. *)
let record t ~code ~replica ~arg =
  if !Obs.trace_on then begin
    let engine = Soc.engine t.soc in
    Ring.instant (Engine.obs engine).Obs.ring ~time:(Engine.now engine) ~cat:Obs.Cat.resilience
      ~id:(Obs.resilience_event ~replica ~code) ~arg
  end

let compromised_now t =
  Array.fold_left
    (fun acc site ->
      match site.apt_target with
      | Some target when Apt.compromised target -> acc + 1
      | Some _ | None -> acc)
    0 t.sites

let note_compromise_level t =
  let now_count = compromised_now t in
  if now_count > t.compromised_peak then t.compromised_peak <- now_count;
  if now_count > t.group.Group.f && t.failed_at = None then begin
    t.failed_at <- Some (Engine.now (Soc.engine t.soc));
    record t ~code:Obs.code_safety_lost ~replica:0 ~arg:t.group.Group.f
  end

(* Grid placement for one replica region; trojan avoidance is a rejuvenation
   policy, not an initial-placement privilege (the integrator does not know
   where the backdoors are). *)
let place_site grid ~edge ~variant ~owner =
  match Grid.find_placement grid ~w:edge ~h:edge () with
  | None -> invalid_arg "Resilient_system: fabric grid too small for all replicas"
  | Some region ->
    (match Grid.place grid ~region ~variant ~owner with
     | Ok slot -> slot
     | Error e -> invalid_arg ("Resilient_system: placement failed: " ^ e))

let create (config : config) =
  let soc = Soc.create config.soc in
  let engine = Soc.engine soc in
  let rng = Soc.rng soc in
  List.iter (fun (x, y) -> Grid.mark_trojaned (Soc.grid soc) ~x ~y) config.trojaned_frames;
  let group = Group.build engine (Group.On_soc soc) config.group in
  let n = group.Group.n_replicas in
  let pool = Common_mode.create ~n_variants:config.n_variants ~shared_prob:config.shared_vuln_prob in
  let diversity = Diversity.create ~pool config.diversity in
  let assignment = Diversity.initial_assignment diversity ~n_replicas:n in
  let apt =
    match config.apt with
    | None -> None
    | Some a ->
      Some
        (Apt.create engine (Rng.split rng) ~n_variants:config.n_variants
           ~mean_exploit_cycles:a.mean_exploit_cycles ~exposure:a.exposure
           ~backdoor_delay:a.backdoor_delay ())
  in
  let rejuvenation = ref None in
  let t_ref = ref None in
  let on_compromise replica =
    match !t_ref with
    | None -> ()
    | Some t ->
      t.compromises <- t.compromises + 1;
      record t ~code:Obs.code_compromise ~replica ~arg:t.sites.(replica).variant;
      note_compromise_level t;
      (match (config.apt, config.reactive_rejuvenation, !(t.rejuvenation)) with
       | Some a, true, Some mgr when a.detection_prob > 0.0 ->
         if Rng.bernoulli t.rng a.detection_prob then
           ignore
             (Engine.schedule engine ~delay:a.detection_delay (fun () ->
                  Rejuvenation.rejuvenate_now mgr ~replica))
       | _ -> ())
  in
  let sites =
    Array.init n (fun i ->
        let variant = assignment.(i) in
        let slot = place_site (Soc.grid soc) ~edge:config.region_edge ~variant ~owner:i in
        let apt_target =
          match apt with
          | None -> None
          | Some adversary ->
            let backdoored = Grid.slot_on_trojaned_frame (Soc.grid soc) slot in
            Some
              (Apt.register_target adversary ~id:i ~variant ~backdoored ~on_compromise ())
        in
        { slot; variant; apt_target })
  in
  let t =
    {
      config;
      soc;
      group;
      diversity;
      sites;
      assignment;
      rejuvenation;
      apt;
      rng;
      compromises = 0;
      compromised_peak = 0;
      failed_at = None;
      ran = false;
    }
  in
  t_ref := Some t;
  (match config.rejuvenation with
   | None -> ()
   | Some policy ->
     let hooks =
       {
         Rejuvenation.n_replicas = n;
         take_offline =
           (fun replica ->
             record t ~code:Obs.code_down ~replica ~arg:0;
             t.group.Group.set_offline ~replica;
             match (t.apt, sites.(replica).apt_target) with
             | Some adversary, Some target -> Apt.deactivate adversary target
             | _ -> ());
         bring_online = (fun replica -> t.group.Group.set_online ~replica);
         choose_variant =
           (fun replica ->
             Diversity.rejuvenation_variant t.diversity ~replica ~current:t.assignment);
         on_restart =
           (fun ~replica ~variant ->
             record t ~code:Obs.code_restart ~replica ~arg:variant;
             let site = sites.(replica) in
             t.assignment.(replica) <- variant;
             site.variant <- variant;
             if t.config.relocate_on_rejuvenation then
               (match Grid.relocate (Soc.grid t.soc) site.slot ~avoid_trojaned:true () with
                | Ok region ->
                  record t ~code:Obs.code_relocate ~replica
                    ~arg:(Obs.pack_origin ~x:region.Region.x ~y:region.Region.y)
                | Error _ -> record t ~code:Obs.code_relocate_failed ~replica ~arg:0);
             Grid.set_variant (Soc.grid t.soc) site.slot variant;
             (match (t.apt, site.apt_target) with
              | Some adversary, Some target ->
                let backdoored = Grid.slot_on_trojaned_frame (Soc.grid t.soc) site.slot in
                Apt.rejuvenate adversary target ~variant ~backdoored ()
              | _ -> ());
             note_compromise_level t);
       }
     in
     rejuvenation := Some (Rejuvenation.start engine policy hooks));
  t

let soc t = t.soc
let group t = t.group

let variant_of t ~replica = t.sites.(replica).variant

let run t ~horizon ~workload_period =
  if t.ran then invalid_arg "Resilient_system.run: already ran";
  t.ran <- true;
  let engine = Soc.engine t.soc in
  if workload_period <= 0 then invalid_arg "Resilient_system.run: workload period must be positive";
  Engine.every engine ~period:workload_period (fun () ->
      if Engine.now engine < horizon then
        for client = 0 to t.config.group.Group.n_clients - 1 do
          t.group.Group.submit ~client ~payload:1L
        done);
  Engine.every engine ~period:t.config.sample_period (fun () -> note_compromise_level t);
  Engine.run ~until:horizon engine;
  let stats = t.group.Group.stats () in
  let rejuvenations =
    match !(t.rejuvenation) with Some mgr -> Rejuvenation.rejuvenations mgr | None -> 0
  in
  {
    horizon;
    submitted = stats.Stats.submitted;
    completed = stats.Stats.completed;
    availability =
      (if stats.Stats.submitted = 0 then 1.0
       else float_of_int stats.Stats.completed /. float_of_int stats.Stats.submitted);
    throughput_kcycle = Stats.throughput stats ~horizon;
    latency_mean = Histogram.mean stats.Stats.latency;
    latency_p99 = Histogram.percentile stats.Stats.latency 99.0;
    view_changes = stats.Stats.view_changes;
    wrong_replies = stats.Stats.wrong_replies;
    messages = t.group.Group.messages ();
    bytes = t.group.Group.bytes ();
    rejuvenations;
    checkpoints = stats.Stats.checkpoints;
    state_transfers = stats.Stats.state_transfers;
    transfer_bytes = stats.Stats.transfer_bytes;
    transfer_cycles_mean =
      (if stats.Stats.state_transfers = 0 then 0.0
       else float_of_int stats.Stats.transfer_cycles /. float_of_int stats.Stats.state_transfers);
    compromises = t.compromises;
    compromised_peak = t.compromised_peak;
    failed_at = t.failed_at;
  }
