type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;
}

(* Two-sided 95% critical values, df = 1..30. *)
let t95_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t95 ~df =
  if df <= 0 then invalid_arg "Stats.t95: df must be positive"
  else if df <= 30 then t95_table.(df - 1)
  else if df <= 40 then 2.021
  else if df <= 60 then 2.000
  else if df <= 120 then 1.980
  else 1.960

(* P(|T| <= t) for Student's t with [df] degrees of freedom, in closed
   form (Abramowitz & Stegun 26.7.3-4) with theta = atan (t / sqrt df). *)
let t_central ~df t =
  let theta = atan (t /. sqrt (float_of_int df)) in
  let c2 = cos theta *. cos theta in
  (* sum over j of coef_j * cos^(2j) theta, coef_j = prod (2i + odd) / (2i + 1 + odd) *)
  let series ~first ~terms ~odd =
    let acc = ref first and term = ref first in
    for j = 1 to terms do
      term := !term *. c2 *. float_of_int ((2 * j) - 1 + odd) /. float_of_int ((2 * j) + odd);
      acc := !acc +. !term
    done;
    !acc
  in
  if df mod 2 = 1 then
    let tail = if df = 1 then 0.0 else series ~first:(cos theta) ~terms:((df - 3) / 2) ~odd:1 in
    2.0 /. Float.pi *. (theta +. (sin theta *. tail))
  else sin theta *. series ~first:1.0 ~terms:((df - 2) / 2) ~odd:0

let t_quantile ~df ~p =
  if df <= 0 then invalid_arg "Stats.t_quantile: df must be positive";
  if not (p > 0.0 && p < 1.0) then invalid_arg "Stats.t_quantile: p must lie in (0, 1)";
  (* Bisection: [t_central] rises monotonically from 0 to 1. *)
  let lo = ref 0.0 and hi = ref 1.0 in
  while t_central ~df !hi < p do
    hi := 2.0 *. !hi
  done;
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if t_central ~df mid < p then lo := mid else hi := mid
  done;
  !hi

let summarize values =
  let n = Array.length values in
  if n = 0 then { n = 0; mean = Float.nan; stddev = Float.nan; min = Float.nan; max = Float.nan; ci95 = Float.nan }
  else begin
    let sum = Array.fold_left ( +. ) 0.0 values in
    let mean = sum /. float_of_int n in
    let mn = Array.fold_left Float.min Float.infinity values in
    let mx = Array.fold_left Float.max Float.neg_infinity values in
    if n = 1 then { n; mean; stddev = 0.0; min = mn; max = mx; ci95 = 0.0 }
    else begin
      let ss =
        Array.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0.0 values
      in
      let stddev = sqrt (ss /. float_of_int (n - 1)) in
      let ci95 = t95 ~df:(n - 1) *. stddev /. sqrt (float_of_int n) in
      { n; mean; stddev; min = mn; max = mx; ci95 }
    end
  end

type fraction = {
  trials : int;
  successes : int;
  fraction : float;
  lo : float;
  hi : float;
}

let z95 = 1.959963984540054

let survival outcomes =
  let n = Array.length outcomes in
  if n = 0 then { trials = 0; successes = 0; fraction = Float.nan; lo = Float.nan; hi = Float.nan }
  else begin
    let successes = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 outcomes in
    let nf = float_of_int n in
    let p = float_of_int successes /. nf in
    let z2 = z95 *. z95 in
    let denom = 1.0 +. (z2 /. nf) in
    let center = (p +. (z2 /. (2.0 *. nf))) /. denom in
    let half =
      z95 /. denom *. sqrt ((p *. (1.0 -. p) /. nf) +. (z2 /. (4.0 *. nf *. nf)))
    in
    {
      trials = n;
      successes;
      fraction = p;
      lo = Float.max 0.0 (center -. half);
      hi = Float.min 1.0 (center +. half);
    }
  end

let pp_mean_ci ?(decimals = 1) s =
  if s.n < 2 then Printf.sprintf "%.*f" decimals s.mean
  else Printf.sprintf "%.*f ±%.*f" decimals s.mean decimals s.ci95

let pp_fraction f = Printf.sprintf "%d/%d [%.2f,%.2f]" f.successes f.trials f.lo f.hi
