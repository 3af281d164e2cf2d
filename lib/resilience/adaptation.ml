module Engine = Resoc_des.Engine

type action = Raise_f of int | Lower_f of int

type policy = {
  f_min : int;
  f_max : int;
  raise_threshold : float;
  lower_threshold : float;
  eval_period : int;
  cooldown : int;
}

let default_policy =
  {
    f_min = 1;
    f_max = 3;
    raise_threshold = 3.0;
    lower_threshold = 0.5;
    eval_period = 1_000;
    cooldown = 5_000;
  }

type hooks = { current_f : unit -> int; scale_to : int -> unit }

type t = {
  engine : Engine.t;
  policy : policy;
  threat : Threat.t;
  hooks : hooks;
  mutable last_action_at : int;
  mutable history : (int * action) list;  (* newest first *)
  mutable stopped : bool;
}

let evaluate t =
  let now = Engine.now t.engine in
  if now - t.last_action_at >= t.policy.cooldown then begin
    let level = Threat.level t.threat in
    let f = t.hooks.current_f () in
    if level >= t.policy.raise_threshold && f < t.policy.f_max then begin
      let f' = f + 1 in
      t.last_action_at <- now;
      t.history <- (now, Raise_f f') :: t.history;
      t.hooks.scale_to f'
    end
    else if level <= t.policy.lower_threshold && f > t.policy.f_min then begin
      let f' = f - 1 in
      t.last_action_at <- now;
      t.history <- (now, Lower_f f') :: t.history;
      t.hooks.scale_to f'
    end
  end

let start engine policy threat hooks =
  if policy.f_min < 0 || policy.f_max < policy.f_min then
    invalid_arg "Adaptation.start: inconsistent f bounds";
  if policy.eval_period <= 0 then invalid_arg "Adaptation.start: eval period must be positive";
  if policy.lower_threshold > policy.raise_threshold then
    invalid_arg "Adaptation.start: thresholds must leave a hysteresis band";
  let t =
    {
      engine;
      policy;
      threat;
      hooks;
      last_action_at = -policy.cooldown;
      history = [];
      stopped = false;
    }
  in
  Engine.every engine ~period:policy.eval_period (fun () -> if not t.stopped then evaluate t);
  t

let actions t = List.rev t.history

let stop t = t.stopped <- true
