(** SoC assembly: the simulated chip every experiment runs on.

    Bundles the engine, the mesh NoC, and the FPGA fabric grid, and adapts
    the NoC into the protocol-facing {!Resoc_repl.Transport.fabric} so the
    same protocol code that runs on the test hub runs over real simulated
    links with contention and failures. *)

module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Mesh = Resoc_noc.Mesh
module Grid = Resoc_fabric.Grid
module Icap = Resoc_fabric.Icap
module Transport = Resoc_repl.Transport

type config = {
  mesh_width : int;
  mesh_height : int;
  grid_width : int;  (** FPGA fabric frames. *)
  grid_height : int;
  noc : Resoc_noc.Network.config;
  seed : int64;
}

val default_config : config
(** 4x4 mesh, 16x16 fabric grid, default NoC timing, seed 1. *)

type t

val create : config -> t

val engine : t -> Engine.t
val rng : t -> Rng.t
(** A fresh split per call. *)

val mesh : t -> Mesh.t
val grid : t -> Grid.t

val spread_placement : t -> n:int -> int array
(** [n] distinct tile ids spread evenly over the mesh (replicas far apart
    share fewer links — the placement a sane SoC integrator would pick).
    Raises [Invalid_argument] when the mesh is too small. *)

val noc_fabric :
  t -> placement:int array -> size_of:('msg -> int) -> 'msg Transport.fabric
(** Endpoint [i] of the returned fabric lives on tile [placement.(i)]
    (placement must be injective and name tiles of the mesh; raises
    [Invalid_argument] otherwise). Messages are routed hop-by-hop over the
    mesh; [size_of] gives per-message bytes for serialization timing. *)

val noc_messages : t -> int
val noc_bytes : t -> int
val noc_dropped : t -> int
(** Aggregated over every fabric created from this SoC. *)

val set_on_partition : t -> (reachable:int -> total:int -> unit) -> unit
(** Register the chip-level partition listener. Fabrics built with
    adaptive routing report every route-table recompute here as
    [~reachable] of [~total] ordered tile pairs connected (E11 counts
    partitions this way). No-op for non-adaptive routing. *)
