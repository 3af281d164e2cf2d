(* Reference implementations for the oracle tests in test_hw: the
   bit-at-a-time SECDED codec and gate evaluator that the word-parallel
   [Resoc_hw.Ecc] and [Resoc_hw.Circuit] replaced. They are slow on purpose;
   the fast code must match them bit for bit, draw for draw. *)

module Rng = Resoc_des.Rng

module Secded = struct
  type codeword = { lo : int64; hi : int }

  let is_power_of_two i = i land (i - 1) = 0

  let data_positions =
    let rec collect pos acc =
      if pos > 71 then List.rev acc
      else if is_power_of_two pos then collect (pos + 1) acc
      else collect (pos + 1) (pos :: acc)
    in
    Array.of_list (collect 1 [])

  let get w i =
    if i < 64 then Int64.logand (Int64.shift_right_logical w.lo i) 1L = 1L
    else (w.hi lsr (i - 64)) land 1 = 1

  let set w i b =
    if i < 64 then
      let mask = Int64.shift_left 1L i in
      if b then { w with lo = Int64.logor w.lo mask }
      else { w with lo = Int64.logand w.lo (Int64.lognot mask) }
    else
      let mask = 1 lsl (i - 64) in
      if b then { w with hi = w.hi lor mask } else { w with hi = w.hi land lnot mask }

  let empty = { lo = 0L; hi = 0 }

  let syndrome w =
    let s = ref 0 in
    for i = 1 to 71 do
      if get w i then s := !s lxor i
    done;
    !s

  let parity_over_all w =
    let p = ref false in
    for i = 0 to 71 do
      if get w i then p := not !p
    done;
    !p

  let encode data =
    let w = ref empty in
    Array.iteri
      (fun k pos ->
        let bit = Int64.logand (Int64.shift_right_logical data k) 1L = 1L in
        w := set !w pos bit)
      data_positions;
    let s = syndrome !w in
    let j = ref 1 in
    while !j <= 64 do
      if s land !j <> 0 then w := set !w !j true;
      j := !j lsl 1
    done;
    assert (syndrome !w = 0);
    if parity_over_all !w then w := set !w 0 true;
    !w

  let extract w =
    let d = ref 0L in
    Array.iteri
      (fun k pos -> if get w pos then d := Int64.logor !d (Int64.shift_left 1L k))
      data_positions;
    !d

  let decode w =
    let s = syndrome w in
    let parity_odd = parity_over_all w in
    if s = 0 && not parity_odd then (extract w, Resoc_hw.Ecc.Clean)
    else if s = 0 && parity_odd then (extract w, Resoc_hw.Ecc.Corrected)
    else if parity_odd then
      let repaired = set w s (not (get w s)) in
      (extract repaired, Resoc_hw.Ecc.Corrected)
    else (extract w, Resoc_hw.Ecc.Uncorrectable)

  let flip w i = set w i (not (get w i))

  let bits_set w =
    let n = ref 0 in
    for i = 0 to 71 do
      if get w i then incr n
    done;
    !n

  let equal a b = Int64.equal a.lo b.lo && a.hi = b.hi

  let to_string w = Printf.sprintf "%02x%016Lx" w.hi w.lo

  let parity v =
    let rec fold v acc =
      if Int64.equal v 0L then acc
      else fold (Int64.shift_right_logical v 1) (acc <> (Int64.logand v 1L = 1L))
    in
    fold v false
end

module Netlist = struct
  open Resoc_hw.Circuit

  let is_fallible = function Input _ | Const _ -> false | _ -> true

  let eval_gate values inputs = function
    | Input k -> inputs.(k)
    | Const b -> b
    | Not a -> not values.(a)
    | Buf a -> values.(a)
    | And (a, b) -> values.(a) && values.(b)
    | Or (a, b) -> values.(a) || values.(b)
    | Xor (a, b) -> values.(a) <> values.(b)
    | Nand (a, b) -> not (values.(a) && values.(b))
    | Nor (a, b) -> not (values.(a) || values.(b))

  let eval_with c inputs upset =
    let gates = gates c in
    let values = Array.make (Array.length gates) false in
    Array.iteri
      (fun i k ->
        let v = eval_gate values inputs k in
        let v = if is_fallible k && upset () then not v else v in
        values.(i) <- v)
      gates;
    Array.map (fun o -> values.(o)) (outputs c)

  let eval c inputs = eval_with c inputs (fun () -> false)

  let eval_faulty c rng ~p_gate inputs = eval_with c inputs (fun () -> Rng.bernoulli rng p_gate)

  let count_correct rng c ~trials ~p_gate =
    let correct = ref 0 in
    for _ = 1 to trials do
      let inputs = Array.init (n_inputs c) (fun _ -> Rng.bool rng) in
      let golden = eval c inputs in
      let faulty = eval_faulty c rng ~p_gate inputs in
      if golden = faulty then incr correct
    done;
    !correct
end
