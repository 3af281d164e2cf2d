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

val to_sorted_pairs : t -> (int * int) array
(** Snapshot of the contents as (key, payload) pairs sorted by key
    ascending. Used for the engine's era renumbering and cancelled-event
    purge of the heap; O(n log n), allocates. *)

val reload : t -> (int * int) array -> unit
(** Replace the contents with [pairs], which MUST be sorted by key
    ascending (a sorted array is a valid binary heap). Clears anything
    previously stored. *)
