(* Layout: logical code positions 0..71.
   Position 0 holds the overall parity bit.
   Positions 1..71 form a Hamming(71,64) code: positions that are powers of
   two (1,2,4,8,16,32,64) hold check bits; the remaining 64 positions hold
   data bits in increasing-position order.

   Every operation works on whole words: the syndrome is seven masked
   parities, the overall parity one more, and the data bits move between
   the data word and their code positions as five shifted runs in [lo] plus
   one in [hi]. *)

type codeword = { lo : int64; hi : int }
(* [lo] holds code positions 0..63, [hi] positions 64..71 (8 bits). *)

type status = Clean | Corrected | Uncorrectable

let width = 72

(* Parity of the low 32 bits of [x]. *)
let[@inline] parity32 x =
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  (x lxor (x lsr 1)) land 1

let[@inline] parity_bit v =
  parity32 (Int64.to_int (Int64.logxor v (Int64.shift_right_logical v 32)))

let parity v = parity_bit v = 1

(* Bit j of the syndrome is the parity of the positions whose index has
   bit j set: [syndrome_lo.(j)] and [syndrome_hi.(j)] mask them. *)
let syndrome_lo =
  Array.init 7 (fun j ->
      let m = ref 0L in
      for i = 1 to 63 do
        if (i lsr j) land 1 = 1 then m := Int64.logor !m (Int64.shift_left 1L i)
      done;
      !m)

let syndrome_hi =
  Array.init 7 (fun j ->
      let m = ref 0 in
      for i = 64 to 71 do
        if (i lsr j) land 1 = 1 then m := !m lor (1 lsl (i - 64))
      done;
      !m)

(* The helpers below take the two halves unboxed and are inlined, so an
   encode or decode allocates only the word or pair it returns. *)
let[@inline] syndrome_bit lo hi j =
  (parity_bit (Int64.logand lo syndrome_lo.(j)) lxor parity32 (hi land syndrome_hi.(j))) lsl j

(* XOR of the indices of all set positions in 1..71; zero for a valid
   Hamming codeword. *)
let[@inline] syndrome lo hi =
  syndrome_bit lo hi 0 lor syndrome_bit lo hi 1 lor syndrome_bit lo hi 2 lor syndrome_bit lo hi 3
  lor syndrome_bit lo hi 4 lor syndrome_bit lo hi 5 lor syndrome_bit lo hi 6

let[@inline] parity_odd lo hi = parity_bit lo lxor parity32 hi = 1

(* Data bits 0, 1..3, 4..10, 11..25 and 26..56 sit at positions 3, 5..7,
   9..15, 17..31 and 33..63; bits 57..63 at positions 65..71. *)
let run0 = 0x1L
let run1 = 0xEL
let run2 = 0x7F0L
let run3 = 0x3FFF800L
let run4 = 0x1FFFFFFFC000000L

let[@inline] scatter_lo d =
  let open Int64 in
  logor
    (logor (shift_left (logand d run0) 3) (shift_left (logand d run1) 4))
    (logor
       (logor (shift_left (logand d run2) 5) (shift_left (logand d run3) 6))
       (shift_left (logand d run4) 7))

let[@inline] scatter_hi d = Int64.to_int (Int64.shift_right_logical d 57) lsl 1

let[@inline] gather lo hi =
  let open Int64 in
  logor
    (logor (logand (shift_right_logical lo 3) run0) (logand (shift_right_logical lo 4) run1))
    (logor
       (logor (logand (shift_right_logical lo 5) run2) (logand (shift_right_logical lo 6) run3))
       (logor
          (logand (shift_right_logical lo 7) run4)
          (shift_left (of_int ((hi lsr 1) land 0x7F)) 57)))

(* Check bit j sits at position 2^j: [check_lo.(s)] sets the check bits at
   positions 1..32 that syndrome [s] (mod 64) calls for; bit 6 goes to
   position 64, bit 0 of [hi]. *)
let check_lo =
  Array.init 64 (fun s ->
      let m = ref 0L in
      for j = 0 to 5 do
        if (s lsr j) land 1 = 1 then m := Int64.logor !m (Int64.shift_left 1L (1 lsl j))
      done;
      !m)

let encode data =
  let lo = scatter_lo data and hi = scatter_hi data in
  (* Setting check bit 2^j toggles syndrome bit j alone, so setting the
     check bits to the data's syndrome zeroes it. *)
  let s = syndrome lo hi in
  let lo = Int64.logor lo check_lo.(s land 63) and hi = hi lor (s lsr 6) in
  (* Overall parity (position 0) makes total parity even. *)
  let lo = if parity_odd lo hi then Int64.logor lo 1L else lo in
  { lo; hi }

let decode { lo; hi } =
  let s = syndrome lo hi in
  let odd = parity_odd lo hi in
  if s = 0 && not odd then (gather lo hi, Clean)
  else if s = 0 then
    (* The overall parity bit itself flipped; data is intact. *)
    (gather lo hi, Corrected)
  else if odd then
    (* Odd number of flips with a non-zero syndrome: treat as the single-bit
       error at position [s] and repair it. A syndrome of 72 or more names
       no stored position (three or more flips): nothing is repaired, yet
       the word reads as [Corrected]. *)
    let lo = if s < 64 then Int64.logxor lo (Int64.shift_left 1L s) else lo in
    let hi = if s >= 64 && s < width then hi lxor (1 lsl (s - 64)) else hi in
    (gather lo hi, Corrected)
  else
    (* Non-zero syndrome, even parity: double-bit error, not correctable. *)
    (gather lo hi, Uncorrectable)

let flip w i =
  if i < 0 || i >= width then invalid_arg "Ecc.flip: bit out of range";
  if i < 64 then { w with lo = Int64.logxor w.lo (Int64.shift_left 1L i) }
  else { w with hi = w.hi lxor (1 lsl (i - 64)) }

let popcount64 v =
  let open Int64 in
  let v = sub v (logand (shift_right_logical v 1) 0x5555555555555555L) in
  let v = add (logand v 0x3333333333333333L) (logand (shift_right_logical v 2) 0x3333333333333333L) in
  let v = logand (add v (shift_right_logical v 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul v 0x0101010101010101L) 56)

let bits_set w = popcount64 w.lo + popcount64 (Int64.of_int w.hi)

let equal a b = Int64.equal a.lo b.lo && a.hi = b.hi

let pp ppf w = Format.fprintf ppf "%02x%016Lx" w.hi w.lo
