type protection = Plain | Parity | Secded

type read_status = Ok | Corrected | Fault_detected

type storage =
  | Plain_word of int64 ref
  | Parity_word of { value : int64 ref; parity : bool ref }
  | Secded_word of Ecc.codeword ref

type t = {
  protection : protection;
  storage : storage;
  mutable shadow : int64;  (* last written value; experiment oracle only *)
  mutable upsets : int;
}

let create protection value =
  let storage =
    match protection with
    | Plain -> Plain_word (ref value)
    | Parity -> Parity_word { value = ref value; parity = ref (Ecc.parity value) }
    | Secded -> Secded_word (ref (Ecc.encode value))
  in
  { protection; storage; shadow = value; upsets = 0 }

let protection t = t.protection

let stored_bits t = match t.protection with Plain -> 64 | Parity -> 65 | Secded -> 72

(* Rough gate-equivalent costs: parity needs a 64-input XOR tree (~63 XOR2);
   SECDED needs 8 parity trees plus a decoder/corrector (~500 gates), in
   line with published SECDED implementations. *)
let gate_cost = function Plain -> 0 | Parity -> 63 | Secded -> 500

let write t v =
  t.shadow <- v;
  match t.storage with
  | Plain_word r -> r := v
  | Parity_word { value; parity } ->
    value := v;
    parity := Ecc.parity v
  | Secded_word r -> r := Ecc.encode v

let read t =
  match t.storage with
  | Plain_word r -> (!r, Ok)
  | Parity_word { value; parity } ->
    if Ecc.parity !value = !parity then (!value, Ok) else (!value, Fault_detected)
  | Secded_word r ->
    let data, status = Ecc.decode !r in
    (match status with
     | Ecc.Clean -> (data, Ok)
     | Ecc.Corrected ->
       (* Scrub: write back the repaired word. *)
       r := Ecc.encode data;
       (data, Corrected)
     | Ecc.Uncorrectable -> (data, Fault_detected))

let scrub t = ignore (read t)

let inject_upset_at t i =
  t.upsets <- t.upsets + 1;
  match t.storage with
  | Plain_word r ->
    if i < 0 || i >= 64 then invalid_arg "Register.inject_upset_at";
    r := Int64.logxor !r (Int64.shift_left 1L i)
  | Parity_word { value; parity } ->
    if i < 0 || i >= 65 then invalid_arg "Register.inject_upset_at";
    if i = 64 then parity := not !parity
    else value := Int64.logxor !value (Int64.shift_left 1L i)
  | Secded_word r -> r := Ecc.flip !r i

let inject_upset t rng = inject_upset_at t (Resoc_des.Rng.int rng (stored_bits t))

let upsets_injected t = t.upsets

(* Non-mutating variant of [read] (no SECDED scrub): the oracle must not
   perturb the simulated hardware. *)
let peek t =
  match t.storage with
  | Plain_word r -> (!r, Ok)
  | Parity_word { value; parity } ->
    if Ecc.parity !value = !parity then (!value, Ok) else (!value, Fault_detected)
  | Secded_word r ->
    let data, status = Ecc.decode !r in
    (match status with
     | Ecc.Clean -> (data, Ok)
     | Ecc.Corrected -> (data, Corrected)
     | Ecc.Uncorrectable -> (data, Fault_detected))

let silently_corrupt t =
  match peek t with
  | _, Fault_detected -> false
  | v, (Ok | Corrected) -> not (Int64.equal v t.shadow)
