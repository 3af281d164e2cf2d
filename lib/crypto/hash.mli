(** Simulation-grade 64-bit hashing.

    FNV-1a with an extra avalanche finalizer. This is NOT cryptographically
    secure; it is deterministic, fast, and collision-resistant enough for a
    simulated adversary that never attempts to invert or forge hashes (the
    threat model manipulates protocol state, not the hash function). *)

type t = int64
(** A 64-bit digest. *)

val of_string : string -> t

val of_bytes : bytes -> t

val combine : t -> t -> t
(** Order-sensitive combination of two digests. *)

val combine_int : t -> int -> t

val memo_signers : (int -> t) -> int -> t
(** [memo_signers f] is [f] with its results for 0..63 computed once, up
    front; other arguments are computed on each call. For the per-signer
    digest prefixes of the trusted components. *)

val chain : t -> t -> t
(** [chain prev d] extends a hash chain (A2M-style log attestations). *)

val zero : t
(** Chain origin. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_hex : t -> string
