let binomial n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = min k (n - k) in
    let acc = ref 1.0 in
    for i = 0 to k - 1 do
      acc := !acc *. float_of_int (n - i) /. float_of_int (i + 1)
    done;
    !acc
  end

let r_nmr ~n r =
  if n < 1 || n mod 2 = 0 then invalid_arg "Redundancy.r_nmr: n must be odd and positive";
  let majority = (n / 2) + 1 in
  let acc = ref 0.0 in
  for k = majority to n do
    acc := !acc +. (binomial n k *. (r ** float_of_int k) *. ((1.0 -. r) ** float_of_int (n - k)))
  done;
  !acc

let r_tmr r = r_nmr ~n:3 r

let r_nmr_with_voter ~n ~voter r = voter *. r_nmr ~n r

let mc_module_nmr rng ~n ~trials ~p_fail =
  if trials <= 0 then invalid_arg "Redundancy.mc_module_nmr: trials must be positive";
  let majority = (n / 2) + 1 in
  let failures = ref 0 in
  for _ = 1 to trials do
    let ok = ref 0 in
    for _ = 1 to n do
      if not (Resoc_des.Rng.bernoulli rng p_fail) then incr ok
    done;
    if !ok < majority then incr failures
  done;
  float_of_int !failures /. float_of_int trials

let mc_circuit_correct rng circuit ~trials ~p_gate =
  if trials <= 0 then invalid_arg "Redundancy.mc_circuit_correct: trials must be positive";
  let correct = Circuit.count_correct circuit rng ~trials ~p_gate in
  float_of_int correct /. float_of_int trials
