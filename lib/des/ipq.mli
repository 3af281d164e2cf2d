(** Specialized binary min-heap: unboxed int keys, int payloads.

    The engine's far-event heap: events due 64 or more cycles ahead wait
    here, and move to the engine's per-cycle wheel as the clock nears
    them. Both backing stores are plain [int array]s, so pushes and pops
    allocate nothing after warm-up and each ordering decision is one
    machine-word compare — no comparator closure and no option boxing on
    the hot path, unlike a generic heap over boxed elements.

    The engine packs (time, seq) into a single key, making keys unique
    and the heap order total; this module itself tolerates duplicate
    keys (their relative pop order is then unspecified). *)

type t

val create : unit -> t

val size : t -> int

val is_empty : t -> bool

val add : t -> int -> int -> unit
(** [add t key v] pushes [v] under [key]. *)

val min_key : t -> int
(** Key of the minimum entry. Raises [Invalid_argument] when empty. *)

val min_val : t -> int
(** Payload of the minimum entry. Raises [Invalid_argument] when empty. *)

val remove_min : t -> unit
(** Drop the minimum entry. Raises [Invalid_argument] when empty. *)

(** {2 Rewriting in place}

    The engine's cancelled-event purge filters the store and restores
    the heap order; its era renumbering walks the store in key order and
    rewrites every key. Neither allocates. *)

val nth_key : t -> int -> int
(** Key of entry [i] of the backing store, [0 <= i < size]. *)

val nth_val : t -> int -> int
(** Payload of entry [i] of the backing store. *)

val set_nth : t -> int -> int -> int -> unit
(** [set_nth t i key v] overwrites entry [i]; the heap order is the
    caller's to restore (with {!heapify}) or keep. *)

val truncate : t -> int -> unit
(** Keep only the first [n] entries of the backing store. *)

val heapify : t -> unit
(** Restore the heap order over the whole store, in place. *)

val sort : t -> unit
(** Sort the backing store by key ascending, in place: afterwards entry
    [i] is the [i]-th smallest. A sorted store is still a valid heap, so
    rewriting it with ascending keys keeps it one. O(n log n). *)
