(** 2D-mesh network-on-chip topology with fault state.

    Tiles are numbered row-major: id = y*width + x. Links are directed
    (full-duplex modeled as two directed links). Routing is XY
    dimension-order — deterministic and deadlock-free, as in most real NoCs;
    a failed link or router on the unique XY path therefore drops traffic,
    which is exactly the failure visibility the resilience layers react to. *)

type t

type link = { src : int; dst : int }
(** A directed link between adjacent tiles. *)

val create : width:int -> height:int -> t

val width : t -> int
val height : t -> int
val n_nodes : t -> int

val coord_of_id : t -> int -> int * int
(** (x, y) of a tile id. Raises [Invalid_argument] if out of range. *)

val id_of_coord : t -> x:int -> y:int -> int

val manhattan : t -> int -> int -> int
(** Hop distance between two tiles. *)

val neighbors : t -> int -> int list

val check_id : t -> int -> unit
(** Raises [Invalid_argument] unless the id names a tile. *)

val xy_route : t -> src:int -> dst:int -> int list
(** Tiles visited, inclusive of [src] and [dst]; X dimension first. *)

val yx_route : t -> src:int -> dst:int -> int list
(** Y dimension first — the escape path of simple fault-tolerant routers. *)

val fail_link : t -> link -> unit
val repair_link : t -> link -> unit
val link_up : t -> link -> bool
(** Unknown links (non-adjacent endpoints) raise [Invalid_argument].
    Failing an already-failed link (or repairing an up one) is a no-op:
    the fault state, counts, {!epoch} and subscribers only see actual
    flips. *)

val fail_router : t -> int -> unit
val repair_router : t -> int -> unit
val router_up : t -> int -> bool

(** {2 Fault-state bookkeeping}

    Every actual flip of a link or router bumps {!epoch} and invokes the
    {!on_change} subscribers synchronously (in subscription order), so
    route tables computed from the surviving topology can be stamped with
    the epoch they saw and consumers learn about degradation the moment
    it happens. The failed counts are maintained in O(1) on fail/repair,
    unlike {!failed_links}/{!failed_routers} which scan the whole table
    and are meant for tests and diagnostics only. *)

val epoch : t -> int
(** Monotone counter of fault-state flips; equal epochs imply identical
    fault state since the last observation. *)

val last_flip : t -> int
(** The component of the latest flip (the one that set {!epoch}): its
    link id, or [-1 - id] for router [id]; whether it went down or up is
    its current state. Meaningless at epoch 0. Lets a consumer that saw
    epoch [e - 1] update incrementally to epoch [e]. *)

val failed_link_count : t -> int
val failed_router_count : t -> int

val on_change : t -> (unit -> unit) -> unit
(** Subscribe to fault-state flips. Callbacks run synchronously inside
    [fail_*]/[repair_*]; they must not themselves mutate the mesh. *)

val route_usable : t -> src:int -> dst:int -> bool
(** All routers and links along the XY route are up. The endpoints' own
    routers must be up too. *)

val xy_path_usable : t -> src:int -> dst:int -> bool
(** Allocation-free [route_usable] on the XY path (hot-path variant). *)

(** {2 Integer link ids}

    Directed links double as dense array indices: [src * 4 + dir] with
    dir 0 = north, 1 = west, 2 = east, 3 = south. Scanning ids in
    ascending order enumerates links in (src, dst) lexicographic order.
    Border ids that point off the mesh are never up nor down; they are
    simply unused. *)

val n_link_ids : t -> int
(** Size of the link-id space, [4 * n_nodes]. *)

val link_id : t -> src:int -> dst:int -> int
(** Id of the directed link; raises [Invalid_argument] unless [src] and
    [dst] are adjacent tiles. *)

val link_of_id : t -> int -> link
(** Inverse of [link_id]; the id must be in range (the result of a
    border id is a phantom link no valid route crosses). *)

val link_dst : t -> int -> int
(** [(link_of_id t lid).dst] without building the record or checking the
    range — the id must come from [link_id]. *)

val link_up_id : t -> int -> bool
(** [link_up] by id, no validation — the id must come from [link_id]. *)

val real_link_ids : t -> int array
(** The link ids that name an actual link (border ids that point off the
    mesh are excluded), in ascending order. Fault injectors draw targets
    from this array. *)

val failed_links : t -> link list
val failed_routers : t -> int list
(** Diagnostic scans (O(links)/O(nodes) and allocating); hot paths use
    {!failed_link_count}/{!failed_router_count} instead. *)
