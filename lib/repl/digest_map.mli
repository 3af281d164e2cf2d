(** Open-addressed map from 64-bit digests ({!Resoc_crypto.Hash.t}) to
    arbitrary values — the replication layer's replacement for
    [(Hash.t, _) Hashtbl.t] on the hot path. Linear probing over a
    power-of-two table, backward-shift deletion (no tombstones), and no
    allocation per lookup, [set] or [remove_at] in steady state.

    Iteration order is the (deterministic) table order, not insertion
    order; callers that need a canonical order must sort, as they
    already do for request re-proposal. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] makes an empty map; [capacity] is rounded up to a power
    of two (minimum 8). *)

val length : 'a t -> int

val mem : 'a t -> int64 -> bool

val set : 'a t -> int64 -> 'a -> unit
(** Insert or overwrite ([Hashtbl.replace] semantics). *)

val get : 'a t -> int64 -> 'a option
(** Allocates the [Some]; hot paths should use {!index} / {!value_at}. *)

val remove : 'a t -> int64 -> unit

val index : 'a t -> int64 -> int
(** Slot of the key, or [-1] if absent. Valid until the next [set],
    [remove], [remove_at] or [reset] (a removal shifts later entries).
    With {!value_at} / {!remove_at} this gives find-and-remove in one
    probe sequence with zero allocation. *)

val value_at : 'a t -> int -> 'a
(** The value in a slot returned by {!index} (which must be [>= 0]). *)

val remove_at : 'a t -> int -> unit
(** Delete the entry in a slot returned by {!index}. *)

val iter : (int64 -> 'a -> unit) -> 'a t -> unit

val fold : (int64 -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val reset : 'a t -> unit
(** Empty the map, keeping its capacity. *)
