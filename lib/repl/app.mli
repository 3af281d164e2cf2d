(** Replicated application state machines.

    The accumulator application sums request payloads; because addition is
    commutative, replicas that execute the same *set* of requests agree on
    the final state even across the simplified view-change re-ordering (see
    DESIGN.md), which makes it the right safety oracle for fault scenarios.
    The register application is order-sensitive and used to verify ordering
    in fault-free runs. *)

module Hash = Resoc_crypto.Hash

type t

val accumulator : unit -> t
(** state' = state + payload; result = state'. *)

val register : unit -> t
(** state' = payload (last-writer-wins); result = previous state. *)

val kv : unit -> t
(** A 16-key/32-bit-value store driven through encoded payloads (see
    {!Kv_op}); its visible state is a digest of the whole map, so ordering
    differences surface. Use in fault-free ordering tests. *)

(** Payload codec for the {!kv} application. *)
module Kv_op : sig
  type op =
    | Get of int  (** result: current value of the key. *)
    | Put of int * int32  (** result: previous value of the key. *)
    | Incr of int  (** result: new value. *)

  val encode : op -> int64
  val decode : int64 -> op option
  (** [None] on malformed payloads (the app treats those as no-op Get 0). *)
end

val execute : t -> int64 -> int64

val state : t -> int64

val set_state : t -> int64 -> unit
(** State transfer onto a recovering replica. *)

val executions : t -> int

val corrupted : t -> t
(** Same state evolution, but every visible result is wrong (a Byzantine
    replica's externally visible behaviour). *)
