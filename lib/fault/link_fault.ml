module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Mesh = Resoc_noc.Mesh
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Ring = Resoc_obs.Ring
module Inject = Resoc_check.Inject

type config = {
  upset_rate : float;
  upset_repair_mean : float;
  wearout_shape : float;
  wearout_scale : float;
}

let default_config =
  { upset_rate = 0.0; upset_repair_mean = 200.0; wearout_shape = 2.0; wearout_scale = 0.0 }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mesh : Mesh.t;
  config : config;
  links : int array;  (* real (non-border) link ids, ascending *)
  down_until : int array;  (* by link id: latest scheduled upset repair *)
  worn : Bytes.t;  (* by link id: '\001' once wear-out landed (permanent) *)
  mutable upsets : int;
  mutable wearouts : int;
  mutable halted : bool;
  obs : Obs.t;
  obs_upsets : int;
  obs_wearouts : int;
  obs_repairs : int;
}

let trace t ~arg =
  if !Obs.trace_on then
    Ring.instant t.obs.Obs.ring ~time:(Engine.now t.engine) ~cat:Obs.Cat.fault
      ~id:Obs.fault_link ~arg

(* Transient upsets arrive as a Poisson process over the whole fabric:
   exponential inter-arrival at [upset_rate] per link per cycle, a uniform
   victim link, and an exponential repair delay. All three draws happen
   before [Inject.permit] so a replay that suppresses the occurrence still
   consumes identical RNG values and the rest of the schedule stays
   aligned (same idiom as {!Seu}). *)
let rec schedule_upset t =
  if (not t.halted) && t.config.upset_rate > 0.0 then begin
    let mean = 1.0 /. (t.config.upset_rate *. float_of_int (Array.length t.links)) in
    let delay = max 1 (int_of_float (Float.round (Rng.exponential t.rng ~mean))) in
    ignore
      (Engine.schedule t.engine ~delay (fun () ->
           if not t.halted then begin
             let lid = t.links.(Rng.int t.rng (Array.length t.links)) in
             let repair_delay =
               max 1
                 (int_of_float (Float.round (Rng.exponential t.rng ~mean:t.config.upset_repair_mean)))
             in
             let now = Engine.now t.engine in
             if Inject.permit ~kind:Inject.Link ~time:now ~a:lid ~b:0 then begin
               Mesh.fail_link t.mesh (Mesh.link_of_id t.mesh lid);
               t.upsets <- t.upsets + 1;
               if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.obs_upsets;
               trace t ~arg:t.upsets;
               let back_at = now + repair_delay in
               if back_at > t.down_until.(lid) then t.down_until.(lid) <- back_at;
               ignore
                 (Engine.at t.engine ~time:back_at (fun () ->
                      (* Repair only if no later upset extended the outage
                         and wear-out has not made the failure permanent. *)
                      if
                        (not t.halted)
                        && Engine.now t.engine >= t.down_until.(lid)
                        && Bytes.get t.worn lid = '\000'
                      then begin
                        Mesh.repair_link t.mesh (Mesh.link_of_id t.mesh lid);
                        if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.obs_repairs
                      end))
             end;
             schedule_upset t
           end))
  end

(* Weibull wear-out: one lifetime per link, drawn up front in ascending
   link-id order (again: draws are independent of permit decisions), each
   landing as a permanent failure that repair never undoes. *)
let schedule_wearout t =
  if t.config.wearout_scale > 0.0 then
    Array.iter
      (fun lid ->
        let life =
          max 1
            (int_of_float
               (Float.round
                  (Rng.weibull t.rng ~shape:t.config.wearout_shape ~scale:t.config.wearout_scale)))
        in
        ignore
          (Engine.at t.engine ~time:life (fun () ->
               if
                 (not t.halted)
                 && Bytes.get t.worn lid = '\000'
                 && Inject.permit ~kind:Inject.Link ~time:(Engine.now t.engine) ~a:lid ~b:1
               then begin
                 Bytes.set t.worn lid '\001';
                 Mesh.fail_link t.mesh (Mesh.link_of_id t.mesh lid);
                 t.wearouts <- t.wearouts + 1;
                 if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.obs_wearouts;
                 trace t ~arg:t.wearouts
               end)))
      t.links

let start engine rng mesh config =
  if config.upset_rate < 0.0 then invalid_arg "Link_fault.start: negative upset rate";
  if config.upset_repair_mean <= 0.0 then invalid_arg "Link_fault.start: repair mean must be positive";
  if config.wearout_scale < 0.0 then invalid_arg "Link_fault.start: negative wear-out scale";
  if config.wearout_scale > 0.0 && config.wearout_shape <= 0.0 then
    invalid_arg "Link_fault.start: wear-out shape must be positive";
  let obs = Engine.obs engine in
  let obs_upsets, obs_wearouts, obs_repairs =
    if !Obs.metrics_on then
      ( Registry.counter obs.Obs.metrics "fault.link.upsets",
        Registry.counter obs.Obs.metrics "fault.link.wearouts",
        Registry.counter obs.Obs.metrics "fault.link.repairs" )
    else (0, 0, 0)
  in
  let t =
    {
      engine;
      rng;
      mesh;
      config;
      links = Mesh.real_link_ids mesh;
      down_until = Array.make (Mesh.n_link_ids mesh) 0;
      worn = Bytes.make (Mesh.n_link_ids mesh) '\000';
      upsets = 0;
      wearouts = 0;
      halted = false;
      obs;
      obs_upsets;
      obs_wearouts;
      obs_repairs;
    }
  in
  schedule_wearout t;
  schedule_upset t;
  t

let halt t = t.halted <- true
let upsets t = t.upsets
let wearouts t = t.wearouts
