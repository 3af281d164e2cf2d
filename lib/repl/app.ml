module Hash = Resoc_crypto.Hash

type t = {
  mutable state : int64;
  mutable executions : int;
  step : int64 -> int64 -> int64 * int64;  (* state -> payload -> state', result *)
  mutable mangle : int64 -> int64;
}

let accumulator () =
  {
    state = 0L;
    executions = 0;
    step = (fun s p -> let s' = Int64.add s p in (s', s'));
    mangle = Fun.id;
  }

let register () =
  { state = 0L; executions = 0; step = (fun s p -> (p, s)); mangle = Fun.id }

module Kv_op = struct
  type op = Get of int | Put of int * int32 | Incr of int

  (* Layout: bits 62-61 opcode, 59-48 key (12 bits used of 16), 31-0 value. *)
  let encode = function
    | Get key -> Int64.logor (Int64.shift_left 1L 61) (Int64.shift_left (Int64.of_int (key land 0xFFF)) 48)
    | Put (key, v) ->
      Int64.logor
        (Int64.logor (Int64.shift_left 2L 61) (Int64.shift_left (Int64.of_int (key land 0xFFF)) 48))
        (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL)
    | Incr key -> Int64.logor (Int64.shift_left 3L 61) (Int64.shift_left (Int64.of_int (key land 0xFFF)) 48)

  let decode payload =
    let opcode = Int64.to_int (Int64.shift_right_logical payload 61) land 0x3 in
    let key = Int64.to_int (Int64.shift_right_logical payload 48) land 0xFFF in
    let value = Int64.to_int32 (Int64.logand payload 0xFFFFFFFFL) in
    match opcode with
    | 1 -> Some (Get key)
    | 2 -> Some (Put (key, value))
    | 3 -> Some (Incr key)
    | _ -> None
end

(* The kv app folds its 16-slot store into the [state] digest after every
   operation so agreement checks (which compare [state]) detect ordering
   divergence. The store itself lives in the closure. *)
let kv_tag = Hash.of_string "kv"

let kv () =
  let store = Array.make 16 0l in
  let digest () =
    Array.fold_left
      (fun acc v -> Hash.combine acc (Int64.of_int32 v))
      kv_tag store
  in
  let step _state payload =
    let result =
      match Kv_op.decode payload with
      | Some (Kv_op.Get key) -> Int64.of_int32 store.(key land 0xF)
      | Some (Kv_op.Put (key, v)) ->
        let key = key land 0xF in
        let prev = store.(key) in
        store.(key) <- v;
        Int64.of_int32 prev
      | Some (Kv_op.Incr key) ->
        let key = key land 0xF in
        store.(key) <- Int32.add store.(key) 1l;
        Int64.of_int32 store.(key)
      | None -> 0L
    in
    (digest (), result)
  in
  { state = 0L; executions = 0; step; mangle = Fun.id }

let execute t payload =
  let state', result = t.step t.state payload in
  t.state <- state';
  t.executions <- t.executions + 1;
  t.mangle result

let state t = t.state

let set_state t s = t.state <- s

let executions t = t.executions

let corrupted t = { t with mangle = (fun r -> Int64.logxor r 0x5A5A5A5A5A5A5A5AL) }
