(** Epoch-stamped BFS next-hop tables for adaptive fault-tolerant routing.

    Recomputed (lazily, on first use after a fault-state flip) from the
    surviving topology: for every destination a reverse BFS yields each
    router's next hop on a shortest surviving path, with a deterministic
    north/west/east/south tie-break, so a message is routable iff its
    endpoints are connected in the surviving graph.

    Recomputation is incremental: each router also carries its discovery
    rank in every destination's BFS, and a refresh after a single
    link/router flip ({!Mesh.last_flip}) finds the destinations whose BFS
    the flip changes with one O(n) scan of the old tables, then reruns
    only those. The first compute, and a refresh that sees several flips
    at once, rerun every destination. The tables are identical either
    way. See DESIGN.md section 9 for the exact rules, the
    deadlock/livelock argument and the cost model. *)

type t

val create : Mesh.t -> t
(** Tables start unstamped; the first routing query computes them. *)

val refresh : t -> bool
(** Bring the tables up to the current mesh epoch if it moved since the
    last compute: O(n) plus one BFS per affected destination after a
    single flip, O(n * (n + links)) otherwise. Returns whether a
    recompute happened. Called implicitly by every
    query below; call it explicitly (e.g. from a [Mesh.on_change]
    subscriber) to recompute eagerly on every fail/repair event. *)

val next_hop : t -> cur:int -> dst:int -> int
(** Next router on a shortest surviving path, [dst] itself when
    [cur = dst], or [-1] when [dst] is unreachable from [cur]. *)

val reachable : t -> src:int -> dst:int -> bool

val epoch : t -> int
(** The {!Mesh.epoch} the current tables reflect (-1 before first use). *)

val recomputes : t -> int
(** Number of refreshes that found the epoch moved, full or incremental. *)

val visits : t -> int
(** Cumulative BFS node visits across all recomputes: each rerun
    destination's BFS counts the routers it dequeues (the destination
    plus every router that reaches it); the per-flip affected-destination
    scan is not counted. The recompute cost model surfaced by the obs
    layer. *)

val reachable_pairs : t -> int
(** Ordered [src <> dst] pairs with a surviving route; partition
    detection compares this against {!total_pairs}. *)

val total_pairs : t -> int
(** [n * (n-1)], the fault-free reachable-pair count. *)
