module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Inject = Resoc_check.Inject

type target = {
  id : int;
  mutable variant : int;
  mutable backdoored : bool;
  mutable backdoor_since : int option;
      (* when the current fabric placement first sat on a trojaned frame;
         rejuvenation in place does NOT reset it — only relocation does *)
  mutable compromised : bool;
  mutable active : bool;
  mutable pending : Engine.handle option;
  on_compromise : int -> unit;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mean_exploit_cycles : float;
  (* None until the adversary first sees the variant deployed; then the
     (absolute) cycle its exploit development completes. Development is
     sequential: work on a newly seen variant starts when the previous
     exploit is finished. *)
  exploit_done : int option array;
  mutable dev_busy_until : int;
  exposure : int;
  backdoor_delay : int;
  mutable targets : target list;
}

let create engine rng ~n_variants ~mean_exploit_cycles ~exposure ?backdoor_delay () =
  if n_variants <= 0 then invalid_arg "Apt.create: need at least one variant";
  if mean_exploit_cycles <= 0.0 then invalid_arg "Apt.create: exploit effort must be positive";
  if exposure < 0 then invalid_arg "Apt.create: negative exposure";
  let backdoor_delay = match backdoor_delay with Some d -> d | None -> exposure in
  {
    engine;
    rng;
    mean_exploit_cycles;
    exploit_done = Array.make n_variants None;
    dev_busy_until = 0;
    exposure;
    backdoor_delay;
    targets = [];
  }

let check_variant t variant =
  if variant < 0 || variant >= Array.length t.exploit_done then
    invalid_arg "Apt: variant out of range"

(* The adversary notices a deployed variant and queues exploit development
   for it behind whatever it is currently working on. *)
let note_deployed t variant =
  check_variant t variant;
  match t.exploit_done.(variant) with
  | Some _ -> ()
  | None ->
    let start = max (Engine.now t.engine) t.dev_busy_until in
    let effort =
      max 1 (int_of_float (Float.round (Rng.exponential t.rng ~mean:t.mean_exploit_cycles)))
    in
    let done_at = start + effort in
    t.dev_busy_until <- done_at;
    t.exploit_done.(variant) <- Some done_at

let exploit_ready_at t ~variant =
  check_variant t variant;
  t.exploit_done.(variant)

let cancel_pending t target =
  match target.pending with
  | Some h ->
    Engine.cancel t.engine h;
    target.pending <- None
  | None -> ()

(* (Re)compute when this target falls, given its exposure clock starts now. *)
let arm t target =
  cancel_pending t target;
  if target.active && not target.compromised then begin
    let now = Engine.now t.engine in
    let via_exploit =
      match t.exploit_done.(target.variant) with
      | Some ready -> Some (max now ready + t.exposure)
      | None -> None
    in
    let via_backdoor =
      match target.backdoor_since with
      | Some since -> Some (max now (since + t.backdoor_delay))
      | None -> None
    in
    let fall_at =
      match (via_exploit, via_backdoor) with
      | Some e, Some b -> Some (min e b)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None
    in
    match fall_at with
    | None -> ()
    | Some time ->
      let handle =
        Engine.at t.engine ~time (fun () ->
            target.pending <- None;
            if
              target.active && not target.compromised
              && Inject.permit ~kind:Inject.Apt ~time:(Engine.now t.engine) ~a:target.id
                   ~b:target.variant
            then begin
              target.compromised <- true;
              target.on_compromise target.id
            end)
      in
      target.pending <- Some handle
  end

let register_target t ~id ~variant ?(backdoored = false) ~on_compromise () =
  note_deployed t variant;
  let target =
    {
      id;
      variant;
      backdoored;
      backdoor_since = (if backdoored then Some (Engine.now t.engine) else None);
      compromised = false;
      active = true;
      pending = None;
      on_compromise;
    }
  in
  t.targets <- target :: t.targets;
  arm t target;
  target

let rejuvenate t target ~variant ?backdoored () =
  note_deployed t variant;
  target.variant <- variant;
  (match backdoored with
   | Some false ->
     target.backdoored <- false;
     target.backdoor_since <- None
   | Some true ->
     target.backdoored <- true;
     if target.backdoor_since = None then target.backdoor_since <- Some (Engine.now t.engine)
   | None -> ());
  target.compromised <- false;
  target.active <- true;
  arm t target

let deactivate t target =
  target.active <- false;
  cancel_pending t target

let compromised target = target.compromised

let compromised_count t =
  List.fold_left (fun acc tg -> if tg.active && tg.compromised then acc + 1 else acc) 0 t.targets

let active_count t = List.fold_left (fun acc tg -> if tg.active then acc + 1 else acc) 0 t.targets
