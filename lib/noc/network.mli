(** Message transport over the mesh, simulated hop by hop.

    Each hop costs router latency plus serialization time (message bytes over
    link bandwidth), and links are FIFO resources: a message arriving at a
    busy link queues behind earlier traffic, so congestion emerges rather
    than being parameterized. Failures are evaluated per hop, so a link or
    router that dies mid-flight kills the messages crossing it.

    In-flight messages are pooled records, payloads included, and the next
    hop is recomputed per hop (dimension order from a node -> column
    array, without divisions, or the adaptive tables — see {!routing}),
    so in steady state a unicast allocates nothing, whatever the
    distance. The first payload sent stays referenced as the filler of
    empty pool slots. *)

type routing =
  | Xy  (** Deterministic dimension-order; a fault on the unique path drops. *)
  | Xy_with_yx_fallback
      (** Source-side fault awareness: if the XY path is known broken, take
          the YX path; only when both are broken is the message doomed. *)
  | Adaptive
      (** Fault-adaptive routing over per-router next-hop tables
          ({!Adaptive}), recomputed on every fail/repair event: a message
          is delivered iff its endpoints are connected in the surviving
          topology, and drops only ever reflect genuine partitions.
          DESIGN.md section 9 gives the deadlock/livelock argument. *)

type config = {
  router_latency : int;  (** cycles of switching per hop. *)
  bytes_per_cycle : int;  (** link bandwidth. *)
  local_latency : int;  (** delivery cost for dst = src. *)
  routing : routing;
  multicast : bool;
      (** Enable tree multicast ({!multicast}): per-root BFS trees over
          the surviving topology ({!Mcast}), cached per mesh epoch. Off
          by default; with it off the network is byte-for-byte the
          pre-multicast simulator. *)
}

val default_config : config
(** 2-cycle routers, 16 bytes/cycle, 1-cycle loopback, XY routing,
    multicast off. *)

type 'msg t

val create : Resoc_des.Engine.t -> Mesh.t -> config -> 'msg t

val mesh : 'msg t -> Mesh.t

val attach : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** Register the receive handler of a tile. Re-attaching replaces the
    handler (used when a tile is rejuvenated). *)

val detach : 'msg t -> node:int -> unit
(** Messages for a detached tile are dropped (tile is off-line). *)

val send : 'msg t -> src:int -> dst:int -> bytes_:int -> 'msg -> unit
(** Injects a message; it is delivered (or dropped) asynchronously via the
    engine. [bytes_] must be positive. *)

val multicast : 'msg t -> src:int -> dsts:int array -> ?n:int -> bytes_:int -> 'msg -> unit
(** One payload to many destinations along the per-root multicast tree:
    the message forks at branch routers, every live link carries it at
    most once, and it reaches every destination the surviving topology
    connects to [src] (duplicates in [dsts] are served once). [?n] limits
    the destinations to a prefix of [dsts] so callers can reuse a scratch
    array without slicing. Aggregate statistics count the logical
    fan-out — [n] sends and [n * bytes_] bytes, like the unicast loop it
    replaces — so stats stay comparable across modes; the physical
    saving shows up in event counts, link load and the [noc.mcast.*]
    instruments. Destinations equal to [src] are delivered locally after
    [local_latency]. Raises [Invalid_argument] when the config has
    [multicast = false]. *)

val set_partition_handler : 'msg t -> (reachable:int -> total:int -> unit) -> unit
(** Adaptive mode only: [f ~reachable ~total] is called synchronously after
    every route-table recompute with the number of ordered reachable
    src/dst pairs out of [total = n*(n-1)]. [reachable < total] means the
    surviving topology is partitioned (or has dead routers); the resilience
    layer uses this to raise the threat level instead of diagnosing
    silent loss. The handler must not mutate the mesh. *)

(** Aggregate statistics. *)

val sent : 'msg t -> int
val delivered : 'msg t -> int
val dropped : 'msg t -> int
val bytes_sent : 'msg t -> int

val hop_load : 'msg t -> (Mesh.link * int) list
(** Messages carried per link (congestion map), in link-id order.
    Allocates the assoc list; meant for tests and reports, not hot
    sampling sites. *)

(** {1 Adaptive-mode introspection} *)

val reachable : 'msg t -> src:int -> dst:int -> bool
(** Whether the current route tables reach [dst] from [src]. Raises
    [Invalid_argument] unless routing is [Adaptive]. *)

val route_epoch : 'msg t -> int
(** Mesh epoch the adaptive tables were last computed for. Raises
    [Invalid_argument] unless routing is [Adaptive]. *)

val recomputes : 'msg t -> int
(** Route-table recomputations so far (0 outside adaptive mode). *)

val recompute_visits : 'msg t -> int
(** Cumulative BFS node visits across recomputations — the recompute cost
    model of DESIGN.md section 9 (0 outside adaptive mode). *)

(** {1 Multicast introspection} *)

val mcast_tree_builds : 'msg t -> int
(** Multicast tree (re)builds so far (0 with multicast off). *)

val mcast_tree_visits : 'msg t -> int
(** Cumulative BFS node visits across multicast tree builds (0 with
    multicast off). *)

(** {1 Checker mutation knobs}

    Used by the [--check] self-tests to prove the NoC invariants fire
    (DESIGN.md section 7); never set outside tests. *)

val test_skip_up_check : bool ref
(** Transmit across failed links/routers instead of dropping. *)

val test_detour_loop : bool ref
(** Adaptive mode: bounce each flight back where it came from. *)

val test_blackhole : bool ref
(** Adaptive mode: drop every flight at its first router. *)

val test_mcast_skip_branch : bool ref
(** Silently prune one branch at every multicast fork — proves the
    delivery-set-equality invariant fires. *)

val test_mcast_dup_deliver : bool ref
(** Deliver every multicast payload twice — proves the duplicate-freedom
    invariant fires. *)
