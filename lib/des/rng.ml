(* The state lives in an 8-byte buffer rather than a [mutable int64] field:
   storing into such a field boxes a fresh int64 on every draw, while
   [Bytes.set_int64_le] writes the raw word. The draws below that return an
   immediate ([int], [bool], [bernoulli]) inline the SplitMix step, so the
   intermediate int64s stay unboxed and a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let int64 t = next t

let split t =
  let seed = next t in
  (* A second mixing round decorrelates the child stream from the parent. *)
  create (mix (Int64.logxor seed 0xA5A5A5A5A5A5A5A5L))

let derive seed index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  (* Closed form for the [index]-th split child of [create seed]: the
     parent's (index+1)-th raw output is mix (seed + (index+1)*gamma), and
     [split] turns each output into a child state with one more mixing
     round. O(1) in [index], so a campaign can address any leaf of the seed
     tree directly without replaying its siblings. *)
  let advanced = Int64.add seed (Int64.mul golden_gamma (Int64.of_int (index + 1))) in
  mix (Int64.logxor (mix advanced) 0xA5A5A5A5A5A5A5A5L)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits so Int64.to_int cannot wrap negative on 63-bit ints. *)
  let v = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
  v mod n

let[@inline] float t x =
  (* 53 bits fit an int exactly; [float_of_int] converts inline where
     [Int64.to_float] calls into the runtime. *)
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits *. 0x1.0p-53 *. x

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then Float.min_float else u in
  -.mean *. log u

(* Endpoints are pinned by test_des: p = 1.0 deterministically returns 0
   (success on the first trial, no draw consumed); p = 0.0 would divide by
   log 1.0 = 0 and p > 1.0 makes log (1-p) a NaN, so both are rejected. *)
let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then Float.min_float else u in
    let v = Float.floor (log u /. log (1.0 -. p)) in
    (* int_of_float is undefined past the int range; a min_float draw at
       tiny p can push the quotient there. *)
    if v >= float_of_int max_int then max_int else int_of_float v

let normal t ~mu ~sigma =
  let u1 = float t 1.0 and u2 = float t 1.0 in
  let u1 = if u1 <= 0.0 then Float.min_float else u1 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: mean must be non-negative";
  if mean = 0.0 then 0
  else if mean > 500.0 then
    (* Normal approximation keeps Knuth's product away from underflow.
       Round-then-truncate is undefined past the int range, so clamp both
       tails instead of letting an extreme draw wrap negative. *)
    let v = Float.round (normal t ~mu:mean ~sigma:(sqrt mean)) in
    if v <= 0.0 then 0 else if v >= float_of_int max_int then max_int else int_of_float v
  else
    let limit = exp (-.mean) in
    let rec loop k prod =
      let prod = prod *. float t 1.0 in
      if prod <= limit then k else loop (k + 1) prod
    in
    loop 0 1.0

let weibull t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Rng.weibull: parameters must be positive";
  let u = float t 1.0 in
  let u = if u <= 0.0 then Float.min_float else u in
  scale *. ((-.log u) ** (1.0 /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* --- counter arithmetic ---

   SplitMix64 is counter-based: the state after [j] draws is
   [s + j * golden_gamma], so draw [j] (0-based) ahead of state [s] is
   [mix (s + (j + 1) * golden_gamma)] and can be computed in any order. The
   lane helpers below read draws [first + l * stride] for [l < lanes]
   without advancing the state, and [skip] advances past them in O(1). Each
   runs its whole lane loop here and returns an immediate [int], so a caller
   in another module allocates nothing under [-opaque]. *)

(* The state [j] draws ahead of [t]'s. *)
let[@inline] ahead t j =
  Int64.add (Bytes.get_int64_le t 0) (Int64.mul golden_gamma (Int64.of_int j))

let check_lanes name lanes =
  if lanes < 0 || lanes > Sys.int_size then
    invalid_arg ("Rng." ^ name ^ ": lanes must be in [0, 63]")

let bool_lanes t ~first ~stride ~lanes =
  check_lanes "bool_lanes" lanes;
  let step = Int64.mul golden_gamma (Int64.of_int stride) in
  let z = ref (ahead t (first + 1)) and mask = ref 0 in
  for l = 0 to lanes - 1 do
    mask := !mask lor ((Int64.to_int (mix !z) land 1) lsl l);
    z := Int64.add !z step
  done;
  !mask

(* [float t 1.0 < p] compares the top 53 bits, scaled by 2^-53, with [p];
   both scalings are exact, so it is [bits < p * 2^53], and for an integer
   [bits] that is [bits < ceil (p * 2^53)]. *)
let bernoulli_lanes t p ~first ~stride ~lanes =
  check_lanes "bernoulli_lanes" lanes;
  if p >= 1.0 then if lanes = Sys.int_size then -1 else (1 lsl lanes) - 1
  else if p > 0.0 then begin
    let threshold = int_of_float (Float.ceil (p *. 0x1.0p53)) in
    let step = Int64.mul golden_gamma (Int64.of_int stride) in
    let z = ref (ahead t (first + 1)) and mask = ref 0 in
    for l = 0 to lanes - 1 do
      if Int64.to_int (Int64.shift_right_logical (mix !z) 11) < threshold then
        mask := !mask lor (1 lsl l);
      z := Int64.add !z step
    done;
    !mask
  end
  else 0

let skip t k =
  if k < 0 then invalid_arg "Rng.skip: count must be non-negative";
  Bytes.set_int64_le t 0 (ahead t k)
