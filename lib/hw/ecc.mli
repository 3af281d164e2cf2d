(** Bit-accurate Hamming SECDED(72,64) codec.

    64 data bits are protected by 7 Hamming check bits plus one overall
    parity bit: Single-Error-Correct, Double-Error-Detect. This is the
    register protection the paper proposes for hardware hybrids such as the
    USIG counter (§III). Encoding and decoding operate on real codewords so
    that miscorrection under 3+ upsets is an emergent, measurable effect. *)

type codeword
(** A 72-bit stored word (opaque). *)

type status =
  | Clean  (** No error detected. *)
  | Corrected  (** A single-bit error was detected and repaired. *)
  | Uncorrectable  (** A double-bit error was detected; data is suspect. *)

val width : int
(** Total stored bits: 72. *)

val encode : int64 -> codeword

val decode : codeword -> int64 * status
(** Decodes and, when possible, corrects the stored word. Note that three or
    more flipped bits can decode as [Clean] or [Corrected] with wrong data —
    silent corruption, exactly as in real SECDED memories. An odd-parity
    word whose syndrome (72 or more) names no stored position also reads as
    [Corrected], with its data bits returned unrepaired. *)

val flip : codeword -> int -> codeword
(** [flip w i] flips stored bit [i] (0 <= i < 72). *)

val parity : int64 -> bool
(** [parity v] is true when [v] has an odd number of set bits; a
    word-parallel fold, shared with the parity-protected register. *)

val bits_set : codeword -> int
(** Population count (test helper). *)

val equal : codeword -> codeword -> bool

val pp : Format.formatter -> codeword -> unit
