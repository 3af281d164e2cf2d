module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Register = Resoc_hw.Register
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Ring = Resoc_obs.Ring
module Inject = Resoc_check.Inject

type t = {
  engine : Engine.t;
  rng : Rng.t;
  rate : float;
  registers : Register.t array;
  total_bits : int;
  mutable injected : int;
  mutable halted : bool;
  obs : Obs.t;
  obs_injected : int;
}

let pick_register t =
  (* Weighted by stored bits so bigger words attract more upsets. *)
  let target = Rng.int t.rng t.total_bits in
  let rec find i acc =
    let bits = Register.stored_bits t.registers.(i) in
    if target < acc + bits then i else find (i + 1) (acc + bits)
  in
  find 0 0

let rec schedule_next t =
  if (not t.halted) && t.rate > 0.0 then begin
    let mean = 1.0 /. (t.rate *. float_of_int t.total_bits) in
    let delay = max 1 (int_of_float (Float.round (Rng.exponential t.rng ~mean))) in
    ignore
      (Engine.schedule t.engine ~delay (fun () ->
           if not t.halted then begin
             (* Draw the target bit before asking the injection log for
                permission: a replay that suppresses this upset must still
                consume the same RNG values, or the rest of the schedule
                diverges from the recorded run. *)
             let i = pick_register t in
             let reg = t.registers.(i) in
             let bit = Rng.int t.rng (Register.stored_bits reg) in
             if Inject.permit ~kind:Inject.Seu ~time:(Engine.now t.engine) ~a:i ~b:bit then begin
               Register.inject_upset_at reg bit;
               t.injected <- t.injected + 1;
               if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.obs_injected;
               if !Obs.trace_on then
                 Ring.instant t.obs.Obs.ring ~time:(Engine.now t.engine) ~cat:Obs.Cat.fault
                   ~id:Obs.fault_seu ~arg:t.injected
             end;
             schedule_next t
           end))
  end

let start engine rng ~rate_per_bit_cycle registers =
  if rate_per_bit_cycle < 0.0 then invalid_arg "Seu.start: negative rate";
  if Array.length registers = 0 && rate_per_bit_cycle > 0.0 then
    invalid_arg "Seu.start: no registers to upset";
  let total_bits = Array.fold_left (fun acc r -> acc + Register.stored_bits r) 0 registers in
  let obs = Engine.obs engine in
  let obs_injected =
    if !Obs.metrics_on then Registry.counter obs.Obs.metrics "fault.seu.injected" else 0
  in
  let t =
    {
      engine;
      rng;
      rate = rate_per_bit_cycle;
      registers;
      total_bits;
      injected = 0;
      halted = false;
      obs;
      obs_injected;
    }
  in
  schedule_next t;
  t

let halt t = t.halted <- true

let injected t = t.injected
