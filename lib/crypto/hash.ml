type t = int64

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* The combinators below are [@inline]d and written as let-chains rather
   than int64-ref loops: the native compiler keeps unboxed int64 locals
   in registers, so an inlined [combine] costs one boxed allocation (the
   result) instead of one per intermediate step. [combine] sits on the
   replication hot path via [Types.request_digest]. *)

let[@inline] avalanche z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let[@inline] feed_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xFF))) fnv_prime

let of_bytes b =
  let h = ref fnv_offset in
  for i = 0 to Bytes.length b - 1 do
    h := feed_byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  avalanche !h

let of_string s = of_bytes (Bytes.unsafe_of_string s)

let[@inline] feed_int64 h v =
  let h = feed_byte h (Int64.to_int v) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical v 8)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical v 16)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical v 24)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical v 32)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical v 40)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical v 48)) in
  feed_byte h (Int64.to_int (Int64.shift_right_logical v 56))

let[@inline] combine a b = avalanche (feed_int64 (feed_int64 fnv_offset a) b)

let[@inline] combine_int a i = combine a (Int64.of_int i)

let chain prev d = combine prev d

let memo_signers f =
  let table = Array.init 64 f in
  fun signer -> if signer >= 0 && signer < 64 then Array.unsafe_get table signer else f signer

let zero = 0L

let equal = Int64.equal

let to_hex t = Printf.sprintf "%016Lx" t

let pp ppf t = Format.pp_print_string ppf (to_hex t)
