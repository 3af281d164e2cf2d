type kind =
  | Input of int
  | Const of bool
  | Not of int
  | Buf of int
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Nand of int * int
  | Nor of int * int

(* [build] compiles the netlist into three flat arrays, one entry per gate:
   an opcode and two operand indices ([Input k] keeps [k] in [arg_a],
   [Const b] keeps its all-lanes word there). Opcodes are constant
   constructors, so [op] is an array of immediates and the evaluator below
   dispatches through a jump table without touching a boxed variant. *)
type opcode = Op_input | Op_const | Op_not | Op_buf | Op_and | Op_or | Op_xor | Op_nand | Op_nor

type t = {
  n_inputs : int;
  gates : kind array;
  outputs : int array;
  op : opcode array;
  arg_a : int array;
  arg_b : int array;
  fallible : int;
}

let is_fallible = function Input _ | Const _ -> false | _ -> true

let validate ~n_inputs gates ~outputs =
  let n = Array.length gates in
  let check_ref here j =
    if j < 0 || j >= here then invalid_arg "Circuit.build: operand must reference an earlier gate"
  in
  Array.iteri
    (fun i k ->
      match k with
      | Input k -> if k < 0 || k >= n_inputs then invalid_arg "Circuit.build: input index out of range"
      | Const _ -> ()
      | Not a | Buf a -> check_ref i a
      | And (a, b) | Or (a, b) | Xor (a, b) | Nand (a, b) | Nor (a, b) ->
        check_ref i a;
        check_ref i b)
    gates;
  Array.iter (fun o -> if o < 0 || o >= n then invalid_arg "Circuit.build: output index out of range") outputs

let compile = function
  | Input k -> (Op_input, k, 0)
  | Const b -> (Op_const, (if b then -1 else 0), 0)
  | Not a -> (Op_not, a, 0)
  | Buf a -> (Op_buf, a, 0)
  | And (a, b) -> (Op_and, a, b)
  | Or (a, b) -> (Op_or, a, b)
  | Xor (a, b) -> (Op_xor, a, b)
  | Nand (a, b) -> (Op_nand, a, b)
  | Nor (a, b) -> (Op_nor, a, b)

let build ~n_inputs gates ~outputs =
  if n_inputs < 0 then invalid_arg "Circuit.build: negative input count";
  validate ~n_inputs gates ~outputs;
  let gates = Array.copy gates and outputs = Array.copy outputs in
  let compiled = Array.map compile gates in
  {
    n_inputs;
    gates;
    outputs;
    op = Array.map (fun (o, _, _) -> o) compiled;
    arg_a = Array.map (fun (_, a, _) -> a) compiled;
    arg_b = Array.map (fun (_, _, b) -> b) compiled;
    fallible = Array.fold_left (fun acc k -> if is_fallible k then acc + 1 else acc) 0 gates;
  }

let n_inputs t = t.n_inputs
let n_outputs t = Array.length t.outputs
let gate_count t = t.fallible
let gates t = Array.copy t.gates
let outputs t = Array.copy t.outputs

(* The word-lane evaluator. Every wire holds two words, [good] fault-free
   and [bad] under fault injection; bit [l] of each is trial [l] of the
   pass, so one bitwise op per gate evaluates up to 63 trials. Trial [l]'s
   draws are the ones it would make on its own: [draws] per trial, the
   trial's [n_inputs] input bits first, then one [bernoulli] per fallible
   gate in netlist order. [Rng]'s lane helpers read them out of order and
   leave the generator alone; the caller skips past them afterwards.
   [first] is the 0-based draw of lane 0's first gate upset. [rng] is
   [None] for the fault-free evaluation, which draws nothing. *)
let pass t good bad inputs rng p_gate ~first ~draws ~lanes =
  let op = t.op and arg_a = t.arg_a and arg_b = t.arg_b in
  let gate = ref first in
  for i = 0 to Array.length op - 1 do
    let a = arg_a.(i) and b = arg_b.(i) and o = op.(i) in
    let flip =
      match (o, rng) with
      | (Op_input | Op_const), _ | _, None -> 0
      | _, Some rng ->
        let f = Resoc_des.Rng.bernoulli_lanes rng p_gate ~first:!gate ~stride:draws ~lanes in
        incr gate;
        f
    in
    match o with
    | Op_input ->
      good.(i) <- inputs.(a);
      bad.(i) <- inputs.(a)
    | Op_const ->
      good.(i) <- a;
      bad.(i) <- a
    | Op_not ->
      good.(i) <- lnot good.(a);
      bad.(i) <- lnot bad.(a) lxor flip
    | Op_buf ->
      good.(i) <- good.(a);
      bad.(i) <- bad.(a) lxor flip
    | Op_and ->
      good.(i) <- good.(a) land good.(b);
      bad.(i) <- bad.(a) land bad.(b) lxor flip
    | Op_or ->
      good.(i) <- good.(a) lor good.(b);
      bad.(i) <- bad.(a) lor bad.(b) lxor flip
    | Op_xor ->
      good.(i) <- good.(a) lxor good.(b);
      bad.(i) <- bad.(a) lxor bad.(b) lxor flip
    | Op_nand ->
      good.(i) <- lnot (good.(a) land good.(b));
      bad.(i) <- lnot (bad.(a) land bad.(b)) lxor flip
    | Op_nor ->
      good.(i) <- lnot (good.(a) lor good.(b));
      bad.(i) <- lnot (bad.(a) lor bad.(b)) lxor flip
  done

(* [bernoulli] draws nothing at p <= 0 or p >= 1. *)
let gate_draws t p_gate = if p_gate <= 0.0 || p_gate >= 1.0 then 0 else t.fallible

(* One trial in lane 0. *)
let eval_one t rng ~p_gate inputs =
  if Array.length inputs <> t.n_inputs then invalid_arg "Circuit.eval: wrong input arity";
  let n = Array.length t.op in
  let good = Array.make n 0 and bad = Array.make n 0 in
  pass t good bad (Array.map Bool.to_int inputs) rng p_gate ~first:0 ~draws:1 ~lanes:1;
  (good, bad)

let eval t inputs =
  let good, _ = eval_one t None ~p_gate:0.0 inputs in
  Array.map (fun o -> good.(o) land 1 <> 0) t.outputs

let eval_faulty t rng ~p_gate inputs =
  let _, bad = eval_one t (Some rng) ~p_gate inputs in
  Resoc_des.Rng.skip rng (gate_draws t p_gate);
  Array.map (fun o -> bad.(o) land 1 <> 0) t.outputs

(* Trials per pass: one per bit of an int. *)
let word = Sys.int_size

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

let count_correct t rng ~trials ~p_gate =
  let n = Array.length t.op in
  let good = Array.make n 0 and bad = Array.make n 0 and inputs = Array.make t.n_inputs 0 in
  let draws = t.n_inputs + gate_draws t p_gate in
  let faults = Some rng in
  let correct = ref 0 in
  let trial = ref 0 in
  while !trial < trials do
    let lanes = min word (trials - !trial) in
    let base = !trial * draws in
    for k = 0 to t.n_inputs - 1 do
      inputs.(k) <- Resoc_des.Rng.bool_lanes rng ~first:(base + k) ~stride:draws ~lanes
    done;
    pass t good bad inputs faults p_gate ~first:(base + t.n_inputs) ~draws ~lanes;
    (* A trial is correct when both words agree on every output. Bits past
       [lanes] see no input bits and no upsets, so the words agree there. *)
    let wrong = ref 0 in
    for j = 0 to Array.length t.outputs - 1 do
      let o = t.outputs.(j) in
      wrong := !wrong lor (good.(o) lxor bad.(o))
    done;
    correct := !correct + lanes - popcount !wrong;
    trial := !trial + lanes
  done;
  Resoc_des.Rng.skip rng (max 0 trials * draws);
  !correct

(* --- builders --- *)

let majority3 =
  (* maj(a,b,c) = ab | bc | ac *)
  let gates =
    [|
      Input 0; Input 1; Input 2;
      And (0, 1);  (* 3 *)
      And (1, 2);  (* 4 *)
      And (0, 2);  (* 5 *)
      Or (3, 4);   (* 6 *)
      Or (6, 5);   (* 7 *)
    |]
  in
  build ~n_inputs:3 gates ~outputs:[| 7 |]

(* n-input majority. n = 1 is a buffer and n = 3 the sum of products above.
   Larger n count the inputs into a little-endian sum, rippling each input
   bit through one half adder (XOR for the sum bit, AND for the carry) per
   sum bit, then compare that count with the threshold (n+1)/2. *)
let majority n =
  if n < 1 || n mod 2 = 0 then invalid_arg "Circuit.majority: n must be odd and positive";
  if n = 1 then build ~n_inputs:1 [| Input 0; Buf 0 |] ~outputs:[| 1 |]
  else if n = 3 then majority3
  else begin
    (* Serial popcount: maintain a little-endian vector of sum bits; add each
       input with a ripple of half-adders. Then compare popcount > n/2. *)
    let gates = ref [] in
    let count = ref 0 in
    let emit k =
      gates := k :: !gates;
      let id = !count in
      incr count;
      id
    in
    let input_ids = Array.init n (fun i -> emit (Input i)) in
    let width = int_of_float (Float.ceil (log (float_of_int (n + 1)) /. log 2.0)) in
    let zero = emit (Const false) in
    let sum = Array.make width zero in
    Array.iter
      (fun inp ->
        (* ripple-add the single bit [inp] into [sum] *)
        let carry = ref inp in
        for b = 0 to width - 1 do
          let s = emit (Xor (sum.(b), !carry)) in
          let c = emit (And (sum.(b), !carry)) in
          sum.(b) <- s;
          carry := c
        done)
      input_ids;
    (* popcount > n/2  <=>  popcount >= (n+1)/2; compare against threshold. *)
    let threshold = (n + 1) / 2 in
    (* Greater-or-equal comparison of sum (unsigned, little-endian) with the
       constant threshold, built from the least significant bit up:
       ge_b = (s_b > t_b) or (s_b = t_b and ge_{b-1}); base case ge = true. *)
    let ge = ref (emit (Const true)) in
    for b = 0 to width - 1 do
      let t_b = (threshold lsr b) land 1 = 1 in
      if t_b then begin
        (* s_b=1 required to stay >=; if s_b=1, defer to lower bits. *)
        let keep = emit (And (sum.(b), !ge)) in
        ge := keep
      end else begin
        (* s_b=1 makes it strictly greater; s_b=0 defers to lower bits. *)
        let greater = sum.(b) in
        let out = emit (Or (greater, !ge)) in
        ge := out
      end
    done;
    let gates = Array.of_list (List.rev !gates) in
    build ~n_inputs:n gates ~outputs:[| !ge |]
  end

let xor_tree n =
  if n < 1 then invalid_arg "Circuit.xor_tree: n must be positive";
  let gates = ref [] in
  let count = ref 0 in
  let emit k =
    gates := k :: !gates;
    let id = !count in
    incr count;
    id
  in
  let ids = Array.init n (fun i -> emit (Input i)) in
  let acc = Array.fold_left (fun acc id -> match acc with None -> Some id | Some a -> Some (emit (Xor (a, id)))) None ids in
  let out = match acc with Some a -> a | None -> assert false in
  let out = if n = 1 then emit (Buf out) else out in
  build ~n_inputs:n (Array.of_list (List.rev !gates)) ~outputs:[| out |]

let random_logic rng ~n_inputs ~n_gates =
  if n_inputs < 1 || n_gates < 1 then invalid_arg "Circuit.random_logic";
  let total = n_inputs + n_gates in
  let gates = Array.make total (Const false) in
  for i = 0 to n_inputs - 1 do
    gates.(i) <- Input i
  done;
  for i = n_inputs to total - 1 do
    let a = Resoc_des.Rng.int rng i in
    let b = Resoc_des.Rng.int rng i in
    let k =
      match Resoc_des.Rng.int rng 6 with
      | 0 -> And (a, b)
      | 1 -> Or (a, b)
      | 2 -> Xor (a, b)
      | 3 -> Nand (a, b)
      | 4 -> Nor (a, b)
      | _ -> Not a
    in
    gates.(i) <- k
  done;
  build ~n_inputs gates ~outputs:[| total - 1 |]

let shift_kind offset = function
  | Input k -> Input k
  | Const b -> Const b
  | Not a -> Not (a + offset)
  | Buf a -> Buf (a + offset)
  | And (a, b) -> And (a + offset, b + offset)
  | Or (a, b) -> Or (a + offset, b + offset)
  | Xor (a, b) -> Xor (a + offset, b + offset)
  | Nand (a, b) -> Nand (a + offset, b + offset)
  | Nor (a, b) -> Nor (a + offset, b + offset)

let replicate_with_voter c n =
  if n_outputs c <> 1 then invalid_arg "Circuit.replicate_with_voter: single-output circuits only";
  if n < 1 || n mod 2 = 0 then invalid_arg "Circuit.replicate_with_voter: n must be odd";
  let voter = majority n in
  let gates = ref [] in
  let len = ref 0 in
  let append ks =
    let offset = !len in
    Array.iter (fun k -> gates := shift_kind offset k :: !gates) ks;
    len := !len + Array.length ks;
    offset
  in
  let replica_outputs =
    Array.init n (fun _ ->
        let offset = append c.gates in
        offset + c.outputs.(0))
  in
  (* Inline the voter, rewiring its Input k to replica k's output. *)
  let voter_offset = !len in
  Array.iter
    (fun k ->
      let k' =
        match k with
        | Input k -> Buf replica_outputs.(k)
        | other -> shift_kind voter_offset other
      in
      gates := k' :: !gates)
    voter.gates;
  len := !len + Array.length voter.gates;
  let out = voter_offset + voter.outputs.(0) in
  build ~n_inputs:c.n_inputs (Array.of_list (List.rev !gates)) ~outputs:[| out |]
