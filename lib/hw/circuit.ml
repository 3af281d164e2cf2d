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
   [Const b] keeps its two-lane value there). Opcodes are constant
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

(* Every wire carries two lanes in one int: bit 0 is the fault-free value,
   bit 1 the value under fault injection. A fault flips bit 1 only. *)
let golden_lane = 1
let faulty_lane = 2
let both = golden_lane lor faulty_lane
let lanes b = if b then both else 0

let compile = function
  | Input k -> (Op_input, k, 0)
  | Const b -> (Op_const, lanes b, 0)
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

let[@inline] upset rng p_gate v =
  if Resoc_des.Rng.bernoulli rng p_gate then v lxor faulty_lane else v

(* One pass over the netlist in topological order. [inputs] holds two-lane
   input values. Each fallible gate makes exactly one [Rng.bernoulli] call,
   in gate order, which draws nothing at p <= 0 or p >= 1. *)
let run t values inputs rng p_gate =
  let op = t.op and arg_a = t.arg_a and arg_b = t.arg_b in
  for i = 0 to Array.length op - 1 do
    let a = arg_a.(i) in
    values.(i) <-
      (match op.(i) with
       | Op_input -> inputs.(a)
       | Op_const -> a
       | Op_not -> upset rng p_gate (values.(a) lxor both)
       | Op_buf -> upset rng p_gate values.(a)
       | Op_and -> upset rng p_gate (values.(a) land values.(arg_b.(i)))
       | Op_or -> upset rng p_gate (values.(a) lor values.(arg_b.(i)))
       | Op_xor -> upset rng p_gate (values.(a) lxor values.(arg_b.(i)))
       | Op_nand -> upset rng p_gate ((values.(a) land values.(arg_b.(i))) lxor both)
       | Op_nor -> upset rng p_gate ((values.(a) lor values.(arg_b.(i))) lxor both))
  done

(* [eval] runs the same pass at p = 0, where [bernoulli] never reads the
   generator, so this one is never advanced. *)
let unused_rng = Resoc_des.Rng.create 0L

let eval_lane t rng ~p_gate inputs lane =
  if Array.length inputs <> t.n_inputs then invalid_arg "Circuit.eval: wrong input arity";
  let values = Array.make (Array.length t.op) 0 in
  run t values (Array.map lanes inputs) rng p_gate;
  Array.map (fun o -> values.(o) land lane <> 0) t.outputs

let eval t inputs = eval_lane t unused_rng ~p_gate:0.0 inputs golden_lane

let eval_faulty t rng ~p_gate inputs = eval_lane t rng ~p_gate inputs faulty_lane

let count_correct t rng ~trials ~p_gate =
  let inputs = Array.make t.n_inputs 0 and values = Array.make (Array.length t.op) 0 in
  let correct = ref 0 in
  for _ = 1 to trials do
    for k = 0 to t.n_inputs - 1 do
      inputs.(k) <- lanes (Resoc_des.Rng.bool rng)
    done;
    run t values inputs rng p_gate;
    (* A trial is correct when both lanes agree on every output. *)
    let agree = ref true in
    for j = 0 to Array.length t.outputs - 1 do
      let v = values.(t.outputs.(j)) in
      if v <> 0 && v <> both then agree := false
    done;
    if !agree then incr correct
  done;
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

(* n-input majority as a chain of full adders summing the input bits, then a
   threshold comparison built from the popcount bits. To stay simple we use
   a "sorting by pairwise median" recursion for small odd n: majority of n is
   computed by ORing all AND-combinations of ceil(n/2) inputs only for tiny n;
   for general odd n we build a serial counter out of half/full adders. *)
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
       constant threshold, folded from the most significant bit down:
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
