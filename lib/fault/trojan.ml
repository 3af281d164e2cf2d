module Engine = Resoc_des.Engine
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Ring = Resoc_obs.Ring
module Inject = Resoc_check.Inject

type effect = Kill_switch | Corrupt_output | Leak_secret

type trigger = Time_bomb of int | Cheat_code of int64

type t = {
  engine : Engine.t;
  trigger : trigger;
  effect : effect;
  on_trigger : effect -> unit;
  mutable triggered : bool;
  mutable armed : bool;
  mutable pending : Engine.handle option;
  obs : Obs.t;
  obs_triggered : int;
}

let effect_code = function Kill_switch -> 0 | Corrupt_output -> 1 | Leak_secret -> 2

let fire t =
  if
    t.armed && not t.triggered
    && Inject.permit ~kind:Inject.Trojan ~time:(Engine.now t.engine) ~a:(effect_code t.effect)
         ~b:0
  then begin
    t.triggered <- true;
    if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.obs_triggered;
    if !Obs.trace_on then
      Ring.instant t.obs.Obs.ring ~time:(Engine.now t.engine) ~cat:Obs.Cat.fault
        ~id:Obs.fault_trojan ~arg:0;
    t.on_trigger t.effect
  end

let plant engine trigger effect ~on_trigger =
  let obs = Engine.obs engine in
  let obs_triggered =
    if !Obs.metrics_on then Registry.counter obs.Obs.metrics "fault.trojan.triggered" else 0
  in
  let t =
    {
      engine;
      trigger;
      effect;
      on_trigger;
      triggered = false;
      armed = true;
      pending = None;
      obs;
      obs_triggered;
    }
  in
  (match trigger with
   | Time_bomb at ->
     let now = Engine.now engine in
     let time = max now at in
     t.pending <- Some (Engine.at engine ~time (fun () -> fire t))
   | Cheat_code _ -> ());
  t

let observe t input =
  match t.trigger with
  | Cheat_code code when Int64.equal code input -> fire t
  | Cheat_code _ | Time_bomb _ -> ()

let triggered t = t.triggered

let disarm t =
  t.armed <- false;
  match t.pending with
  | Some h ->
    Engine.cancel t.engine h;
    t.pending <- None
  | None -> ()
