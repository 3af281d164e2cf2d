(** Allocation-free quorum tracking for agreement protocols.

    A quorum is an int bitset over replica ids [0..62]: adding a vote,
    testing membership, and comparing the voter count against a 2f+1 or
    f+1 threshold are all register operations. This bounds protocol
    groups at 63 replicas (f <= 20 for PBFT), far beyond anything the
    SoC simulations instantiate; [start] functions validate the bound.

    Verified against a [Hashtbl]-of-voters reference model by qcheck
    (see test/test_quorum.ml). *)

type t = int
(** A set of voters. The representation is exposed so protocols can
    store quorums in mutable int fields of pooled entries without
    boxing; treat values as abstract outside this module. *)

val max_voters : int
(** 63: voter ids must satisfy [0 <= voter < max_voters]. *)

val empty : t

val add : t -> int -> t
(** [add t voter] is [t] with [voter]'s vote recorded; idempotent. The
    caller guarantees [0 <= voter < max_voters]. *)

val mem : t -> int -> bool

val count : t -> int
(** Number of distinct voters (popcount). *)

val reached : t -> threshold:int -> bool
(** [reached t ~threshold] is [count t >= threshold]. *)

val test_quorum_slack : int ref
(** Test-only mutation knob: a positive slack weakens every [reached]
    threshold by that many voters, simulating a protocol bug that
    accepts sub-quorum certificates. The resoc_check self-tests flip it
    to prove the checker catches the mutant; leave at [0] otherwise. *)

val check_n : int -> string -> unit
(** [check_n n label] raises [Invalid_argument] unless [0 <= n <= 63];
    protocols call it once at group construction. *)

(** View-change vote tallies: a fixed pool of rounds keyed by view, each
    a bitset plus a per-voter int payload. Replaces the
    [(view, (voter, value) Hashtbl.t) Hashtbl.t] nests: no allocation in
    steady state, slots for views the replica has passed are reused. *)
module Rounds : sig
  type t

  val create : n:int -> ?rounds:int -> unit -> t
  (** [create ~n ()] tracks votes from [n] replicas across (initially)
      4 concurrent views. *)

  val note : t -> current:int -> view:int -> voter:int -> value:int -> int
  (** [note t ~current ~view ~voter ~value] records the vote and returns
      the distinct-voter count for [view]. A repeat vote updates [value]
      but not the count. [current] is the replica's present view, used
      to reclaim stale slots. *)

  val max_value : t -> view:int -> default:int -> int
  (** Maximum payload among [view]'s voters, at least [default]. *)
end
